"""Scenario runner: each subcommand checks one verification chain end to end.

Configs are single JSON documents; ``--set key=value`` overrides config
fields (dotted paths reach into ``params``).  Every scenario writes
``<outdir>/report.json`` plus CSV exports.  Reports are byte-identical
across reruns and thread counts for a fixed config and seed: wall-clock
runtime goes to a ``runtime.txt`` sidecar, never into the report.
``seed`` is recorded in every report but reserved: no computation reads
it yet.

Exit codes: 0 all assertions pass, 1 an assertion failed (named on
stderr), 2 usage or configuration error.  A parameter whose type differs
from its default's (an int may stand for a float) is a usage error, and
so is a library precondition error (``ParameterError``, ``DomainError``
and the like) that a parameter value triggers.  Any other exception, such
as a ``ValueError`` raised inside the numerics, is a bug and propagates
with its traceback: it never exits 2.  When two computation routes of
a run disagree (``ConsistencyError``), the report holds the single failed
assertion ``dual_route_agreement_<check>`` with the disagreement and its
scale, and the exit code is 1.

Scenarios whose subject is a counterexample declare that in config via
``expect_violation: true``; pass semantics are never inverted implicitly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .fields import (
    DomainError,
    DiscField,
    Grid3,
    ParameterError,
    ScalarField3,
    StencilError,
)
from .levi import (
    ConsistencyError,
    Defining2,
    graph_levi,
    green_identity_report,
    levi_condition_2d,
    levi_scan,
    slice_graph,
    slice_ratio_min,
)
from .mollify import (
    HypothesisError,
    UnderResolvedKernelError,
    mollified_sign_certificate,
    staircase_sweep_case,
)
from .potential import (
    AtomicMeasure,
    box_dimension,
    build_square_cantor,
    disc_mass_recovery,
    frostman_certificate,
    frostman_measure,
    graph_set_points,
    green_potential,
)
from .staircase import (
    ConstructionError,
    build_cantor,
    default_alphas,
    fat_F,
    find_x0,
    hartogs_ball_domain,
    hartogs_staircase,
    subharmonicity_scan,
)

__all__ = ["Assertion", "Scenario", "SCENARIOS", "main", "run_scenario"]

_CONFIG_ERRORS = (
    ParameterError,
    DomainError,
    StencilError,
    ConstructionError,
    HypothesisError,
    UnderResolvedKernelError,
)


@dataclass(frozen=True)
class Assertion:
    """One named check; the name matches a module invariant."""

    name: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: dict
    runner: Callable[[dict, bool, Path], tuple[list[Assertion], dict]]


def _plain(value):
    """Recursively convert to JSON-stable builtin types."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    return value


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row]
            )


def _centered_grid(spacing: float, extent: int) -> Grid3:
    half = extent // 2
    origin = (-spacing * half,) * 3
    return Grid3(origin, spacing, (extent, extent, extent))


# -- scenarios ---------------------------------------------------------------


def _run_levi_check(params: dict, expect_violation: bool, outdir: Path):
    model = params["model"]
    spacing = float(params["spacing"])
    extent = int(params["extent"])
    grid = _centered_grid(spacing, extent)
    if model == "ball":
        phi = ScalarField3.from_function(
            grid, lambda a, b, c: np.sqrt(1.0 - a * a - b * b - c * c)
        )
    elif model == "g2":
        phi = ScalarField3.from_function(grid, lambda a, b, c: b * b + c * c)
    else:
        raise ParameterError(f"unknown levi-check model {model!r} (ball | g2)")
    scan = levi_scan(phi, tol=float(params["tol"]))
    scan.to_csv(outdir / "levi_nodes.csv")
    counts = scan.counts()
    center = (extent // 2,) * 3
    center_value = float(scan.values[center])

    assertions = []
    if expect_violation:
        assertions.append(
            Assertion(
                "violating_nodes_present",
                counts["violating"] > 0,
                {"violating": counts["violating"]},
            )
        )
        if model == "g2":
            symbolic = levi_condition_2d(Defining2.g2_model(), (0.0, 0.0))
            fd_grid = _centered_grid(1e-3, 7)
            fd_phi = ScalarField3.from_function(fd_grid, lambda a, b, c: b * b + c * c)
            fd_value = graph_levi(fd_phi, (3, 3, 3))
            assertions.append(
                Assertion(
                    "model_origin_value_quarter",
                    symbolic == -0.25 and abs(center_value + 0.25) <= 1e-9,
                    {"symbolic": symbolic, "scan_center": center_value},
                )
            )
            assertions.append(
                Assertion(
                    "dual_route_agreement",
                    abs(fd_value - symbolic) <= 1e-6,
                    {"fd_route": fd_value, "symbolic_route": symbolic},
                )
            )
    else:
        assertions.append(
            Assertion(
                "all_nodes_pseudoconvex",
                counts["pseudoconvex_ok"] == counts["scanned"] and counts["scanned"] > 0,
                dict(counts),
            )
        )
    tables = {"scan": scan.summary(), "model": model}
    return assertions, tables


def _run_mollify_sweep(params: dict, expect_violation: bool, outdir: Path):
    case = staircase_sweep_case(spacing=float(params["spacing"]))
    deltas = case.delta_sweep(count=int(params["count"]))
    report = mollified_sign_certificate(
        case.v,
        case.phi,
        alpha=float(params["alpha"]),
        p=float(params["p"]),
        epsilon=float(params["epsilon"]),
        deltas=deltas,
    )
    _write_csv(
        outdir / "sweep.csv",
        ["delta", "m_delta"],
        zip(report.deltas, report.m_values),
    )
    assertions = [
        Assertion(
            "mollified_sign_sweep",
            min(report.m_values) >= -report.epsilon,
            {"m_min": min(report.m_values), "epsilon": report.epsilon},
        ),
        Assertion(
            "decay_slope_within_band",
            abs(report.fitted_slope - report.rate_target) <= 0.2,
            {"fitted_slope": report.fitted_slope, "rate_target": report.rate_target},
        ),
        Assertion(
            "smoothing_hypothesis_sign",
            report.hypothesis_min >= -1e-6,
            {"hypothesis_min": report.hypothesis_min},
        ),
    ]
    tables = {"certificate": json.loads(report.to_json())}
    return assertions, tables


def _run_staircase_build(params: dict, expect_violation: bool, outdir: Path):
    alpha1 = _fraction(params["alpha1"])
    depth = int(params["depth"])
    n_offsets = int(params["n_offsets"])
    system = build_cantor(default_alphas(alpha1, depth))

    identity_ok = True
    rows = []
    for n in range(1, depth + 1):
        length = system.interval_length(n)
        expected = Fraction(1, 2**n)
        for k in range(n):
            expected *= 1 - system.alphas[k]
        identity_ok = identity_ok and length == expected
        rows.append((n, 2**n, str(length), float(length)))
    _write_csv(outdir / "intervals.csv", ["n", "count", "length_exact", "length"], rows)

    certificate = find_x0(fat_F(system), n_offsets=n_offsets)
    growth_expected = (1 / (1 - alpha1) - 1) / 2
    assertions = [
        Assertion(
            "interval_length_identity",
            identity_ok,
            {"generations_checked": depth},
        ),
        Assertion(
            "quadratic_growth_bound",
            certificate.growth == growth_expected
            and certificate.offsets_checked == n_offsets,
            {
                "L": float(certificate.growth),
                "x0": float(certificate.x0),
                "offsets_checked": certificate.offsets_checked,
            },
        ),
    ]
    tables = {
        "alphas": [str(a) for a in system.alphas],
        "x0_certificate": json.loads(certificate.to_json()),
    }
    return assertions, tables


def _run_hartogs_scan(params: dict, expect_violation: bool, outdir: Path):
    cap = params["cap"]
    spacing = float(params["spacing"])
    if cap == "ball":
        domain = hartogs_ball_domain(spacing=spacing)
    elif cap == "staircase":
        domain = hartogs_staircase(
            alpha1=_fraction(params["alpha1"]), spacing=spacing
        )
    else:
        raise ParameterError(f"unknown hartogs-scan cap {cap!r} (ball | staircase)")
    scan = subharmonicity_scan(domain, scan_radius=float(params["scan_radius"]))
    xs = domain.cap.axis()
    viol = np.argwhere(scan.violating)
    _write_csv(
        outdir / "violators.csv",
        ["x", "y", "laplacian", "dist_horizontal", "dist_euclidean"],
        (
            (
                float(xs[i]),
                float(xs[j]),
                float(scan.laplacian[i, j]),
                float(scan.dist_horizontal[i, j]),
                float(scan.dist_euclidean[i, j]),
            )
            for i, j in viol
        ),
    )
    n_viol = scan.violating_count()

    assertions = []
    if expect_violation:
        align = scan.violation_alignment()
        far_max = scan.far_field_max()
        assertions.append(
            Assertion("violating_nodes_present", n_viol > 0, {"violating": n_viol})
        )
        assertions.append(
            Assertion(
                "violations_within_2h_of_base_kinks",
                n_viol > 0 and align["within_2h"],
                {"max_horizontal": align["max_horizontal"], "h": domain.spacing},
            )
        )
        assertions.append(
            Assertion(
                "far_nodes_strictly_subharmonic",
                far_max <= -0.5,
                {"max_far_laplacian": far_max},
            )
        )
    else:
        assertions.append(
            Assertion("no_violating_nodes", n_viol == 0, {"violating": n_viol})
        )
    return assertions, {"scan": scan.summary()}


def _run_cantor_potential(params: dict, expect_violation: bool, outdir: Path):
    alpha = float(params["alpha"])
    generation = int(params["generation"])
    square_set = build_square_cantor(alpha, generation)
    measure = frostman_measure(square_set)
    potential = green_potential(measure)

    theta = 2.0 * math.pi * np.arange(512) / 512
    boundary_max = float(
        np.abs(potential.grid_values(np.cos(theta), np.sin(theta))).max()
    )
    single = green_potential(AtomicMeasure(generation=0, atoms=((0j, 1.0),)))
    anchor_err = abs(single(0.5 + 0j) - math.log(2.0))
    recovered = disc_mass_recovery(potential, radius=0.9)

    constants = []
    for n in params["cert_generations"]:
        cert = frostman_certificate(
            frostman_measure(build_square_cantor(alpha, int(n))), alpha
        )
        constants.append((int(n), cert.constant, cert.samples))
    _write_csv(outdir / "growth.csv", ["n", "C", "samples"], constants)
    ratios = [b[1] / a[1] for a, b in zip(constants, constants[1:])]

    dim_set = build_square_cantor(alpha, int(params["dim_generation"]))
    a = dim_set.ratio
    planar = box_dimension(
        dim_set.centers(), [0.7 * a**k for k in range(1, 7)]
    )
    graph_sc = build_square_cantor(alpha, int(params["graph_generation"]))
    graph_pot = green_potential(frostman_measure(graph_sc))
    graph_pts = graph_set_points(graph_sc, graph_pot, n_angles=int(params["graph_angles"]))
    graph = box_dimension(graph_pts, [2.0**-k for k in range(3, 9)])
    _write_csv(
        outdir / "dimension.csv",
        ["set", "scale", "count"],
        [("planar", s, c) for s, c in zip(planar.scales, planar.counts)]
        + [("graph", s, c) for s, c in zip(graph.scales, graph.counts)],
    )

    assertions = [
        Assertion(
            "total_mass_exact", measure.total_mass() == 1.0, {"total": measure.total_mass()}
        ),
        Assertion(
            "boundary_vanishing", boundary_max <= 1e-10, {"max_abs": boundary_max}
        ),
        Assertion(
            "single_atom_anchor", anchor_err <= 1e-12, {"abs_error": anchor_err}
        ),
        Assertion(
            "disc_mass_recovery",
            abs(recovered - 1.0) <= 0.02,
            {"recovered": recovered},
        ),
        Assertion(
            "growth_constant_stable",
            all(0.5 <= r <= 2.0 for r in ratios),
            {"ratios": ratios},
        ),
        Assertion(
            "planar_box_dimension",
            abs(planar.slope - alpha) <= 0.1,
            {"slope": planar.slope},
        ),
        Assertion(
            "graph_box_dimension",
            abs(graph.slope - (1.0 + alpha)) <= 0.15,
            {"slope": graph.slope},
        ),
    ]
    tables = {
        "growth_constants": [
            {"n": n, "C": c, "samples": s} for n, c, s in constants
        ],
        "planar_counts": list(planar.counts),
        "graph_counts": list(graph.counts),
    }
    return assertions, tables


def _run_green_identity(params: dict, expect_violation: bool, outdir: Path):
    spacing = float(params["spacing"])
    fields = {
        "re_zeta": DiscField.from_function(1.0, spacing, lambda x, y: x),
        "abs2": DiscField.from_function(1.0, spacing, lambda x, y: x * x + y * y),
        "abs4": DiscField.from_function(1.0, spacing, lambda x, y: (x * x + y * y) ** 2),
    }
    radii = [float(r) for r in params["radii"]]
    assertions = []
    rows = []
    for name, field in fields.items():
        worst = 0.0
        for r in radii:
            rep = green_identity_report(field, r)
            worst = max(worst, rep.residual)
            rows.append((name, r, rep.residual, rep.circle_mean, rep.area_term))
        assertions.append(
            Assertion(
                f"green_identity_{name}",
                worst <= 1e-5,
                {"max_residual": worst, "radii": radii},
            )
        )
    _write_csv(
        outdir / "residuals.csv",
        ["field", "r", "residual", "circle_mean", "area_term"],
        rows,
    )
    return assertions, {"radii": radii}


def _run_slice_check(params: dict, expect_violation: bool, outdir: Path):
    grid = _centered_grid(float(params["spacing"]), int(params["extent"]))

    def two_disc(y1, z2, z3):
        return np.abs(z2) ** 2 + np.abs(z3) ** 2

    rows = []
    identity_ok = True
    lower_ok = True
    for pair in params["t_values"]:
        if len(pair) != 2:
            raise ParameterError(f"t_values items are [re, im] pairs, got {pair!r}")
        t = complex(float(pair[0]), float(pair[1]))
        ratio = slice_ratio_min(slice_graph(two_disc, t, grid))
        expected = 1.0 + abs(t) ** 2
        identity_ok = identity_ok and abs(ratio - expected) <= 1e-10
        lower_ok = lower_ok and ratio >= 1.0
        rows.append((t.real, t.imag, ratio, expected))
    _write_csv(
        outdir / "slices.csv", ["t_re", "t_im", "ratio_min", "expected"], rows
    )
    assertions = [
        Assertion(
            "slice_ratio_identity", identity_ok, {"t_count": len(rows)}
        ),
        Assertion("slice_ratio_lower_bound", lower_ok, {"t_count": len(rows)}),
    ]
    return assertions, {"slices": [list(r) for r in rows]}


SCENARIOS = {
    "levi-check": Scenario(
        "levi-check",
        "Levi sign scan of a graph model (ball or the concave quadric)",
        {"model": "ball", "spacing": 0.025, "extent": 17, "tol": 1e-8},
        _run_levi_check,
    ),
    "mollify-sweep": Scenario(
        "mollify-sweep",
        "Mollified sign certificate sweep on the shipped staircase case",
        {"spacing": 1.0 / 128.0, "alpha": 0.9, "p": 6.0, "epsilon": 1e-2, "count": 7},
        _run_mollify_sweep,
    ),
    "staircase-build": Scenario(
        "staircase-build",
        "Exact Cantor staircase identities and the quadratic growth point",
        {"alpha1": "9/10", "depth": 12, "n_offsets": 1000},
        _run_staircase_build,
    ),
    "hartogs-scan": Scenario(
        "hartogs-scan",
        "Subharmonicity scan of a Hartogs cap (ball or staircase)",
        {"cap": "ball", "alpha1": "99/100", "spacing": 1.0 / 512.0, "scan_radius": 0.96},
        _run_hartogs_scan,
    ),
    "cantor-potential": Scenario(
        "cantor-potential",
        "Square Cantor measure, Green potential anchors, and dimensions",
        {
            "alpha": 1.0,
            "generation": 5,
            "cert_generations": [4, 5, 6],
            "dim_generation": 8,
            "graph_generation": 5,
            "graph_angles": 1024,
        },
        _run_cantor_potential,
    ),
    "green-identity": Scenario(
        "green-identity",
        "Normalized Green identity residuals on reference disc fields",
        {"spacing": 1.0 / 512.0, "radii": [0.25, 0.5, 1.0]},
        _run_green_identity,
    ),
    "slice-check": Scenario(
        "slice-check",
        "Slice-map ratio checks for the two-disc model",
        {
            "spacing": 0.1,
            "extent": 7,
            "t_values": [[0.1, 0.0], [0.0, 0.05], [0.08, -0.06]],
        },
        _run_slice_check,
    ),
}


# -- config plumbing ---------------------------------------------------------


class UsageError(Exception):
    pass


def _matches_default(value, default) -> bool:
    """Whether a parameter value has the type of its default: an int may
    stand for a float, and each item of a list must match the default's
    first item."""
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_matches_default(v, default[0]) for v in value)
    return type(value) is type(default)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{text!r} is not a fraction") from None


def _parse_set(expr: str) -> tuple[str, object]:
    if "=" not in expr:
        raise UsageError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    for expr in overrides:
        key, value = _parse_set(expr)
        if key.startswith("params."):
            config.setdefault("params", {})[key[len("params.") :]] = value
        else:
            config[key] = value
    return config


def run_scenario(config: dict) -> tuple[dict, Path]:
    """Execute one scenario config; returns (report dict, outdir)."""
    name = config.get("scenario")
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise UsageError(f"unknown scenario {name!r}; valid scenarios: {known}")
    scenario = SCENARIOS[name]
    params = dict(scenario.defaults)
    extra = config.get("params", {})
    if not isinstance(extra, dict):
        raise UsageError("config field 'params' must be an object")
    unknown = set(extra) - set(params)
    if unknown:
        raise UsageError(
            f"unknown parameter(s) for {name}: {', '.join(sorted(unknown))}"
        )
    for key, value in extra.items():
        if not _matches_default(value, params[key]):
            raise UsageError(
                f"parameter {key!r} of {name} must have the type of its default "
                f"{params[key]!r}, got {value!r}"
            )
    params.update(extra)
    try:
        seed = int(config.get("seed", 0))
        outdir = Path(config.get("outdir", f"out/{name}"))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config field 'seed' or 'outdir' is malformed: {exc}") from None
    expect_violation = config.get("expect_violation", False)
    if not isinstance(expect_violation, bool):
        # bool("false") is True: a loose flag would invert pass semantics
        raise UsageError(
            f"config field 'expect_violation' must be true or false, got {expect_violation!r}"
        )
    outdir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    try:
        assertions, tables = scenario.runner(params, expect_violation, outdir)
    except ConsistencyError as exc:
        # two routes disagreeing is a failed check of the run, not a crash
        detail = {"worst": exc.worst, "scale": exc.scale}
        assertions = [Assertion(f"dual_route_agreement_{exc.where}", False, detail)]
        tables = {}
    elapsed = time.perf_counter() - start

    report = {
        "scenario": name,
        "seed": seed,
        "expect_violation": expect_violation,
        "parameters": _plain(params),
        "assertions": [
            {"name": a.name, "passed": bool(a.passed), "detail": _plain(a.detail)}
            for a in assertions
        ],
        "passed": all(a.passed for a in assertions),
        "tables": _plain(tables),
    }
    with open(outdir / "report.json", "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    with open(outdir / "runtime.txt", "w") as handle:
        handle.write(f"runtime_seconds: {elapsed:.3f}\n")
    return report, outdir


def _cmd_run(args) -> int:
    try:
        config = _load_config(args.config, args.set or [])
        report, outdir = run_scenario(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _CONFIG_ERRORS as exc:
        print(f"usage error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    if not report["passed"]:
        failing = [a["name"] for a in report["assertions"] if not a["passed"]]
        for name in failing:
            print(f"assertion failed: {name}", file=sys.stderr)
        return 1
    print(f"{report['scenario']}: {len(report['assertions'])} assertions passed "
          f"({outdir / 'report.json'})")
    return 0


def _cmd_list(args) -> int:
    if args.json:
        payload = {
            name: {"description": s.description, "defaults": _plain(s.defaults)}
            for name, s in sorted(SCENARIOS.items())
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for name, s in sorted(SCENARIOS.items()):
            print(f"{name:18s} {s.description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levicheck",
        description="Run reproducible verification scenarios with structured reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (params.* reaches scenario parameters)",
    )
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list", help="list available scenarios")
    list_p.add_argument("--json", action="store_true", help="machine-readable schema")
    list_p.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)
