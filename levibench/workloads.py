"""Workload jobs and the verdict oracle.

A job is one call into levicheck's public entry points: a scenario through
``cli.run_scenario`` or a library call.  Each job carries its expected
verdict; ``run_job`` gives no failure reason when the outputs match and a
short one otherwise.  Inputs of library jobs are built once per process by
``prepare`` so that a timed pass only measures the call itself.

Sizes are fixed per scale: ``full`` is the benchmark, ``tiny`` is the
self-test's smoke size.  The workload seed never changes a size; it only
orders jobs within a pass and fills the scenario configs' ``seed`` field.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levicheck import levi, mollify, staircase
from levicheck.cli import run_scenario
from levicheck.fields import Grid3, ScalarField3
from levicheck.levi import levi_scan
from levicheck.potential import zygmund_domain
from levicheck.staircase import subharmonicity_scan

LEVI_G2 = ["violating_nodes_present", "model_origin_value_quarter", "dual_route_agreement"]
STAIRCASE_CAP = [
    "violating_nodes_present",
    "violations_within_2h_of_base_kinks",
    "far_nodes_strictly_subharmonic",
]
CANTOR_POTENTIAL = [
    "total_mass_exact",
    "boundary_vanishing",
    "single_atom_anchor",
    "disc_mass_recovery",
    "growth_constant_stable",
    "planar_box_dimension",
    "graph_box_dimension",
]
MOLLIFY = ["mollified_sign_sweep", "decay_slope_within_band", "smoothing_hypothesis_sign"]
GREEN = ["green_identity_re_zeta", "green_identity_abs2", "green_identity_abs4"]


@dataclass
class Job:
    """One unit of work with its expected outcome.

    Scenario jobs set ``config``; library jobs set ``kind`` and ``args``.
    ``expect_passed`` is the report's expected ``passed`` flag (always true:
    expected-violation runs declare ``expect_violation`` in their config),
    ``expect_names`` the exact assertion names, ``expect_counts`` the exact
    counts a library job must return.
    """

    name: str
    config: dict | None = None
    kind: str | None = None
    args: dict = field(default_factory=dict)
    expect_passed: bool = True
    expect_names: tuple = ()
    expect_counts: dict = field(default_factory=dict)


def _scenario(name, scenario, names, params=None, expect_violation=False):
    config = {"scenario": scenario}
    if expect_violation:
        config["expect_violation"] = True
    if params:
        config["params"] = params
    return Job(name, config=config, expect_names=tuple(names))


def _full_workloads() -> dict[str, list[Job]]:
    return {
        "grid3": [
            _scenario("mollify-sweep", "mollify-sweep", MOLLIFY),
            _scenario("levi-check-ball", "levi-check", ["all_nodes_pseudoconvex"]),
            _scenario(
                "levi-check-g2", "levi-check", LEVI_G2, {"model": "g2"}, expect_violation=True
            ),
            _scenario(
                "slice-check", "slice-check", ["slice_ratio_identity", "slice_ratio_lower_bound"]
            ),
            Job(
                "levi-scan-193",
                kind="levi_scan",
                args={"extent": 193, "spacing": 0.005, "tol": 1e-8},
                expect_counts={
                    "scanned": 6967871,
                    "pseudoconvex_ok": 6967871,
                    "violating": 0,
                    "near_zero": 0,
                },
            ),
        ],
        "disc-caps": [
            _scenario("green-identity", "green-identity", GREEN),
            _scenario("hartogs-scan-ball", "hartogs-scan", ["no_violating_nodes"]),
            _scenario(
                "hartogs-scan-staircase",
                "hartogs-scan",
                STAIRCASE_CAP,
                {"cap": "staircase"},
                expect_violation=True,
            ),
            _scenario(
                "staircase-build",
                "staircase-build",
                ["interval_length_identity", "quadratic_growth_bound"],
            ),
            Job(
                "cantor-cap-g4",
                kind="cantor_cap",
                args={"alpha": 1.0, "generation": 4, "spacing": 1.0 / 256.0},
                expect_counts={"scanned": 189761, "violating": 2108},
            ),
        ],
        "cantor-measure": [
            _scenario("cantor-potential", "cantor-potential", CANTOR_POTENTIAL),
            _scenario(
                "cantor-potential-g6",
                "cantor-potential",
                CANTOR_POTENTIAL,
                {"generation": 6, "cert_generations": [5, 6, 7], "dim_generation": 9},
            ),
        ],
    }


def _tiny_workloads() -> dict[str, list[Job]]:
    """Every job kind at smoke size; counts pinned from the seed commit."""
    return {
        "grid3": [
            _scenario("mollify-sweep", "mollify-sweep", MOLLIFY, {"count": 2}),
            _scenario("levi-check-ball", "levi-check", ["all_nodes_pseudoconvex"], {"extent": 9}),
            _scenario(
                "levi-check-g2",
                "levi-check",
                LEVI_G2,
                {"model": "g2", "extent": 9},
                expect_violation=True,
            ),
            _scenario(
                "slice-check", "slice-check", ["slice_ratio_identity", "slice_ratio_lower_bound"]
            ),
            Job(
                "levi-scan-193",
                kind="levi_scan",
                args={"extent": 25, "spacing": 0.005, "tol": 1e-8},
                expect_counts={
                    "scanned": 12167,
                    "pseudoconvex_ok": 12167,
                    "violating": 0,
                    "near_zero": 0,
                },
            ),
        ],
        "disc-caps": [
            _scenario("green-identity", "green-identity", GREEN, {"spacing": 1.0 / 256.0}),
            _scenario(
                "hartogs-scan-ball", "hartogs-scan", ["no_violating_nodes"], {"spacing": 1.0 / 64.0}
            ),
            _scenario(
                "hartogs-scan-staircase",
                "hartogs-scan",
                STAIRCASE_CAP,
                {"cap": "staircase", "spacing": 1.0 / 128.0},
                expect_violation=True,
            ),
            _scenario(
                "staircase-build",
                "staircase-build",
                ["interval_length_identity", "quadratic_growth_bound"],
                {"depth": 6, "n_offsets": 50},
            ),
            Job(
                "cantor-cap-g4",
                kind="cantor_cap",
                args={"alpha": 1.0, "generation": 2, "spacing": 1.0 / 64.0},
                expect_counts={"scanned": 11868, "violating": 195},
            ),
        ],
        "cantor-measure": [
            _scenario(
                "cantor-potential",
                "cantor-potential",
                CANTOR_POTENTIAL,
                {
                    "generation": 3,
                    "cert_generations": [3, 4],
                    "dim_generation": 7,
                    "graph_angles": 512,
                },
            ),
        ],
    }


def fill_lazy_caches() -> None:
    """The lru_cache constants a fresh interpreter computes on first use."""
    levi._unit_square_log_moment()
    staircase.bump_window_second_derivative_sup()
    mollify.kernel_profile_constants()


def jobs_for(scale: str = "full") -> dict[str, list[Job]]:
    if scale == "full":
        return _full_workloads()
    if scale == "tiny":
        return _tiny_workloads()
    raise ValueError(f"unknown scale {scale!r}")


def prepare(jobs: list[Job]) -> dict:
    """Build library-job inputs once, outside any timed region."""
    inputs = {}
    for job in jobs:
        if job.kind == "levi_scan":
            extent, h = job.args["extent"], job.args["spacing"]
            half = extent // 2
            grid = Grid3((-h * half,) * 3, h, (extent,) * 3)
            inputs[job.name] = ScalarField3.from_function(
                grid, lambda a, b, c: np.sqrt(1.0 - a * a - b * b - c * c)
            )
    return inputs


def normalized_digest(report_path: Path, seed: int) -> str:
    """sha256 of report.json with its ``seed`` value written as 0.

    The seed is the only field of a report that the workload seed changes,
    so this digest compares reports across seeds byte for byte otherwise.
    """
    data = report_path.read_bytes()
    data = data.replace(f'  "seed": {seed},\n'.encode(), b'  "seed": 0,\n', 1)
    return hashlib.sha256(data).hexdigest()


def run_job(job: Job, seed: int, outroot: Path, inputs: dict, digests: dict | None = None):
    """Run one job; returns (failure reason or None, drift flag or None)."""
    if job.config is not None:
        config = dict(job.config, seed=seed, outdir=str(outroot / job.name))
        report, outdir = run_scenario(config)
        names = tuple(a["name"] for a in report["assertions"])
        drift = None
        if digests is not None and job.name in digests:
            drift = normalized_digest(outdir / "report.json", seed) != digests[job.name]
        if report["passed"] is not job.expect_passed:
            failing = [a["name"] for a in report["assertions"] if not a["passed"]]
            return f"passed={report['passed']} (failing: {failing})", drift
        if sorted(names) != sorted(job.expect_names):
            return f"assertion names {sorted(names)}", drift
        return None, drift
    if job.kind == "levi_scan":
        counts = levi_scan(inputs[job.name], tol=job.args["tol"]).counts()
    elif job.kind == "cantor_cap":
        domain = zygmund_domain(
            job.args["alpha"], job.args["generation"], spacing=job.args["spacing"]
        )
        scan = subharmonicity_scan(domain)
        counts = {"scanned": scan.scanned_count(), "violating": scan.violating_count()}
    else:
        raise ValueError(f"unknown job kind {job.kind!r}")
    for key, want in job.expect_counts.items():
        if counts[key] != want:
            return f"{key}={counts[key]} (expected {want})", None
    return None, None
