"""Which library functions the standard runs never enter.

The nine standard runs (``scripts/run_all_scenarios.py``, here at smoke
sizes) plus the ``list`` and ``run`` commands execute under
``sys.setprofile``.  Every function, method, closure and lambda compiled from
``src/levicheck/`` that no frame entered is reported by its qualified name;
a closure is listed only if the function around it ran.
The set must equal UNREACHED exactly, so deleting a pinned name, leaving new
test-only code in the library, or calling a pinned name from a run all fail
here until the pin and its reason are updated.  Dataclass-generated methods
are compiled from strings, not from these files, so they never appear.
"""

import inspect
import json
import os
import sys
from pathlib import Path

import levicheck
from levicheck import cli, levi, mollify, staircase

SRC = Path(levicheck.__file__).parent

# (run name, config) at the smoke sizes of the benchmark's tiny workloads
RUNS = [
    ("levi-check-ball", {"scenario": "levi-check", "params": {"extent": 9}}),
    (
        "levi-check-g2",
        {"scenario": "levi-check", "expect_violation": True, "params": {"model": "g2", "extent": 9}},
    ),
    ("mollify-sweep", {"scenario": "mollify-sweep", "params": {"count": 2}}),
    ("staircase-build", {"scenario": "staircase-build", "params": {"depth": 6, "n_offsets": 50}}),
    ("hartogs-scan-ball", {"scenario": "hartogs-scan", "params": {"spacing": 1.0 / 64.0}}),
    (
        "hartogs-scan-staircase",
        {
            "scenario": "hartogs-scan",
            "expect_violation": True,
            "params": {"cap": "staircase", "spacing": 1.0 / 128.0},
        },
    ),
    (
        "cantor-potential",
        {
            "scenario": "cantor-potential",
            "params": {
                "generation": 3,
                "cert_generations": [3, 4],
                "dim_generation": 7,
                "graph_angles": 512,
            },
        },
    ),
    ("green-identity", {"scenario": "green-identity", "params": {"spacing": 1.0 / 256.0}}),
    ("slice-check", {"scenario": "slice-check"}),
]

# qualified name -> why the library keeps it although no standard run enters it
UNREACHED = {
    "cli._cmd_list.<locals>.<dictcomp>": "the `list --json` branch; tests/test_cli.py runs it",
    "cli._cmd_run.<locals>.<listcomp>": "names the failed assertions; runs only on exit 1",
    "fields.DiscField.inside": "the |z| < radius node mask that tests select disc nodes with",
    "fields.ScalarField3.hessian_fields": "wrapped by levibench/tracing.py; the whole-grid oracle of tests",
    "fields.ScalarField3.wirtinger_fields": "wrapped by levibench/tracing.py; tests check it per node",
    "levi.ConsistencyError.__init__": "raised only when two routes disagree; tests force it",
    "levi.Defining2.ball": "closed-form domain, the exact Levi anchor of tests",
    "levi.Defining2.hyperplane": "closed-form domain, the exact Levi anchor of tests",
    "levi.Defining2.hartogs_ball": "closed-form domain, the exact Levi anchor of tests",
    "levi.Defining2.hartogs_lifted": "the Hartogs lift behind hartogs_ball and its tests",
    "levi.Defining2.from_graph_partials": "the symbolic route of test_01's dual-route check",
    "levi.fit_positive_scale": "test_01 fits the graph/ambient Levi scale with it",
    "levi.delta_tau_fields": "wrapped by levibench/tracing.py; the whole-grid oracle of tests",
    "mollify.BumpKernel.mass": "kernel moment; tests check the discretized kernel with it",
    "mollify.BumpKernel.axis_second_moment": "kernel moment; tests check the discretized kernel with it",
    "mollify.BumpKernel.continuum_second_moment": "kernel moment; tests check the discretized kernel with it",
    "mollify.kernel_profile_constants": "the continuum moment; the benchmark set-up and tests call it",
    "mollify.MollifiedField.base_window": "tests compare v * theta_delta with v over U^delta",
    "mollify.MollifiedField.sup_distance_to_base": "tests bound |v * theta_delta - v| with it",
    "potential.potential_field": "ROADMAP item 3 brings it under hartogs-scan cap=cantor",
    "potential.zygmund_domain": "ROADMAP item 3; the benchmark's cantor_cap job calls it",
    "potential.zygmund_seminorm": "ROADMAP item 3 records the cap's seminorm with it",
    "staircase.superharmonic_mean_excess": "ROADMAP item 3's second route for the Cantor cap",
    "staircase.CantorSystem.kept_measure": "tests check the exact Cantor length identities with it",
    "staircase.StaircaseIterates.__call__": "float evaluation of f_n; tests match it to value_exact",
    "staircase.StaircaseIterates.sup_distance": "tests check that successive f_n converge",
}


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def _unreached(entered):
    """Qualified names of the outermost package functions that never ran."""
    out = set()

    def walk(code, prefix):
        for child in code.co_consts:
            if not inspect.iscode(child):
                continue
            name = prefix + child.co_name
            if not child.co_flags & inspect.CO_OPTIMIZED:
                walk(child, name + ".")  # a class body
            elif _key(child) in entered:
                walk(child, name + ".<locals>.")
            else:
                out.add(name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return out


def _entered(work):
    """Keys of the package code objects whose frames work() entered."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return {_key(c) for c in seen if os.path.dirname(c.co_filename) == str(SRC)}


def test_standard_runs_reach_all_but_the_pinned_names(tmp_path):
    # a value cached by an earlier test would hide the call that computes it
    for cached in (
        levi._unit_square_log_moment,
        mollify.kernel_profile_constants,
        staircase.bump_window_second_derivative_sup,
    ):
        cached.cache_clear()
    config = tmp_path / "slice.json"
    config.write_text(json.dumps({"scenario": "slice-check", "outdir": str(tmp_path / "cli")}))

    def work():
        for name, run in RUNS:
            report, _ = cli.run_scenario(dict(run, outdir=str(tmp_path / name)))
            assert report["passed"], name
        assert cli.main(["list"]) == 0
        assert cli.main(["run", "--config", str(config), "--set", "params.extent=7"]) == 0

    unreached = _unreached(_entered(work))
    new = sorted(unreached - set(UNREACHED))
    reached = sorted(set(UNREACHED) - unreached)
    assert not new, f"no standard run enters {new}: delete them or pin a reason"
    assert not reached, f"a standard run now enters the pinned {reached}: unpin them"
