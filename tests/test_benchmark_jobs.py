"""The benchmark's jobs still run and keep their verdicts at smoke size.

``levibench/workloads.py`` calls levicheck's entry points: scenarios
through ``cli.run_scenario`` and library calls directly (``levi_scan``, and
``zygmund_domain`` followed by ``subharmonicity_scan(...).scanned_count()``).
``run_job`` gives a failure reason when a job's verdict, assertion names
or counts differ from its pins, so a library change that breaks one of
those calls or drifts a pinned set fails here, not only in the benchmark's
own self-test.  The workload module is loaded read-only from its file;
nothing in it is changed here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "levibench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("levibench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WL = load_workloads()
TINY = [(workload, job) for workload, jobs in WL.jobs_for("tiny").items() for job in jobs]


@pytest.mark.parametrize(
    "workload, job", TINY, ids=[f"{workload}/{job.name}" for workload, job in TINY]
)
def test_tiny_job_keeps_its_verdict(workload, job, tmp_path):
    inputs = WL.prepare([job])
    assert WL.run_job(job, 0, tmp_path, inputs) == (None, None)
