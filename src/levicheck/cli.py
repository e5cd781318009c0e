"""Scenario runner: each subcommand checks one verification chain end to end.

Configs are single JSON documents; ``--set key=value`` overrides config
fields (dotted paths reach into ``params``).  Every scenario writes
``<outdir>/report.json`` plus CSV exports; the runners here are the one
place that turns library results into report tables.  ``json`` writes
each report, numpy values, Fractions and complex numbers through its
``default`` hook ``_json_default``, and ``run_scenario`` returns the
report read back from the text it wrote.  Reports are byte-identical
across reruns and thread counts for a fixed config and seed: wall-clock
runtime goes to a ``runtime.txt`` sidecar, never into the report.
``seed`` is recorded in every report but reserved: no computation reads
it yet.

Each assertion is one comparison ``value op bound``; its report entry
gives the value, op, bound and margin, and ``passed`` follows from them
(see ``Assertion``).

Exit codes: 0 all assertions pass, 1 an assertion failed (named on stderr
with its value and bound), 2 usage or configuration error.  A parameter of
another type than its default's (an int may stand for a float) or outside
its scenario's ``ranges`` (``tol >= 0`` for levi-check, say), a
non-integer seed, an ``outdir`` that cannot be created (one that
passes through a file, say) and a ``report.json`` or ``runtime.txt`` that
cannot be written there are usage errors, and so is a library
precondition error (``ParameterError``, ``DomainError`` and the like)
that a parameter value triggers.  Any other exception, such as a
``ValueError`` raised inside the numerics, is a bug and propagates with
its traceback: it never exits 2.
When two computation routes of a run disagree (``ConsistencyError``), the
report holds the single failed assertion ``dual_route_agreement_<check>``,
worst disagreement <= 1e-9 * scale, and the exit code is 1.

Scenarios whose subject is a counterexample declare that in config via
``expect_violation: true``; pass semantics are never inverted implicitly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field
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
    _DUAL_TOL,
    ConsistencyError,
    _log_weights,
    g2_model,
    graph_levi_fields,
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
    _START_SIDE,
    AtomicMeasure,
    GreenPotential,
    box_dimension,
    build_square_cantor,
    disc_mass_recovery,
    frostman_certificate,
    frostman_measure,
    graph_set_points,
)
from .staircase import (
    ConstructionError,
    _as_fraction,
    build_cantor,
    default_alphas,
    fat_F,
    find_x0,
    hartogs_ball_domain,
    hartogs_staircase,
    interval_distance,
    segment_mean_excess,
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


_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}
# horizontal distance from the kept columns beyond which the staircase cap
# must be strictly superharmonic
_FAR_FIELD = 0.1


@dataclass(frozen=True)
class Assertion:
    """One named check ``value op bound``; the name matches a module invariant.

    ``passed`` and ``margin`` follow from the three.  The margin is the
    signed distance to failure in the value's units: zero at the bound,
    negative or NaN past it.  ``context`` holds what the value came from.
    """

    name: str
    value: float
    op: str
    bound: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    @property
    def margin(self):
        return self.bound - self.value if "<" in self.op else self.value - self.bound

    @property
    def detail(self) -> dict:
        numbers = {"value": self.value, "op": self.op, "bound": self.bound, "margin": self.margin}
        return {**self.context, **numbers}


def _reduce(reduce, values) -> float:
    """np.min or np.max of values; NaN if any is NaN or there are none, so a
    check with nothing to measure fails."""
    values = np.asarray(values, dtype=float)
    return float(reduce(values)) if values.size else math.nan


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: dict
    ranges: dict[str, tuple[tuple[str, float], ...]]
    runner: Callable[[dict, bool, Path], tuple[list[Assertion], dict]]


def _json_default(value):
    """json's hook for the values it cannot write itself: numpy scalars and
    arrays as their Python values, a Fraction as p/q, a complex as [re, im]."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _to_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=_json_default)


def _number_str(fr: Fraction) -> str:
    """Shortest exact decimal for a rational, the form of the x0_certificate
    values (_json_default writes every other Fraction as p/q).

    Round-trip float repr when the value is exactly a float, full decimal
    expansion for other dyadic rationals, float approximation otherwise.
    """
    try:
        as_float = float(fr)
    except OverflowError:
        as_float = None
    if as_float is not None and Fraction(as_float) == fr:
        return repr(as_float)
    den = fr.denominator
    k = den.bit_length() - 1
    if den == 1 << k:
        num = fr.numerator * 5**k
        sign = "-" if num < 0 else ""
        digits = str(abs(num)).rjust(k + 1, "0")
        if k == 0:
            return sign + digits
        head, tail = digits[:-k], digits[-k:]
        return f"{sign}{head}.{tail}"
    return repr(float(fr))


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
    least, argmin = scan.least()
    center = (extent // 2,) * 3
    center_value = float(scan.values[center])

    if expect_violation:
        assertions = [Assertion("violating_nodes_present", counts["violating"], ">", 0)]
        if model == "g2":
            symbolic = levi_condition_2d(g2_model, (0.0, 0.0))
            fd_grid = _centered_grid(1e-3, 7)
            fd_phi = ScalarField3.from_function(fd_grid, lambda a, b, c: b * b + c * c)
            fd_value = float(graph_levi_fields(fd_phi)[3, 3, 3])
            # the symbolic route must give -1/4 exactly and the scan within
            # 1e-9: the value is the larger excess over those two bounds
            excess = float(np.maximum(abs(symbolic + 0.25), abs(center_value + 0.25) - 1e-9))
            anchor = {"symbolic": symbolic, "scan_center": center_value, "scan_bound": 1e-9}
            routes = {"fd_route": fd_value, "symbolic_route": symbolic}
            assertions += [
                Assertion("model_origin_value_quarter", excess, "<=", 0.0, anchor),
                Assertion("dual_route_agreement", abs(fd_value - symbolic), "<=", 1e-6, routes),
            ]
    else:
        # a node within tol of zero is near_zero, not pseudoconvex
        assertions = [Assertion("all_nodes_pseudoconvex", least, ">", scan.tol, counts)]
    table = {"min": least, "argmin": argmin, "tol": scan.tol, **counts}
    return assertions, {"scan": table, "model": model}


def _run_mollify_sweep(params: dict, expect_violation: bool, outdir: Path):
    case = staircase_sweep_case(spacing=float(params["spacing"]))
    deltas = case.delta_sweep(count=int(params["count"]))
    epsilon = float(params["epsilon"])
    report = mollified_sign_certificate(case.v, case.phi, deltas=deltas)
    _write_csv(outdir / "sweep.csv", ["delta", "m_delta"], zip(deltas, report.m_values))
    rate_target = case.alpha - 3.0 / case.p
    slope_gap = abs(report.fitted_slope - rate_target)
    slope = {"fitted_slope": report.fitted_slope, "rate_target": rate_target}
    sweep = Assertion("mollified_sign_sweep", float(np.min(report.m_values)), ">=", -epsilon)
    assertions = [
        sweep,
        Assertion("decay_slope_within_band", slope_gap, "<=", 0.2, slope),
        Assertion("smoothing_hypothesis_sign", report.hypothesis_min, ">=", -1e-6),
    ]
    certificate = {
        "epsilon": epsilon,
        "alpha": case.alpha,
        "p": case.p,
        "deltas": deltas,
        "m_values": report.m_values,
        "fitted_slope": report.fitted_slope,
        "pass": sweep.passed,
        "reduced_axes": report.reduced_axes,
    }
    return assertions, {"certificate": certificate}


def _run_staircase_build(params: dict, expect_violation: bool, outdir: Path):
    depth = int(params["depth"])
    n_offsets = int(params["n_offsets"])
    system = build_cantor(default_alphas(params["alpha1"], depth))

    length_residual = Fraction(0)
    rows = []
    for n in range(1, depth + 1):
        length = system.interval_length(n)
        expected = Fraction(1, 2**n)
        for k in range(n):
            expected *= 1 - system.alphas[k]
        length_residual += abs(length - expected)
        # the built row: every generation-n pair spans L_n D numerators
        p, q = length.numerator * system.denominator, length.denominator
        miss = sum(abs((right - left) * q - p) for left, right in system.level(n))
        length_residual += Fraction(miss, q * system.denominator)
        rows.append((n, 2**n, str(length), float(length)))
    _write_csv(outdir / "intervals.csv", ["n", "count", "length_exact", "length"], rows)

    certificate = find_x0(fat_F(system), n_offsets=n_offsets)
    growth_expected = (1 / (1 - system.alphas[0]) - 1) / 2
    growth_residual = abs(certificate.growth - growth_expected)
    growth_residual += abs(certificate.offsets_checked - n_offsets)
    growth = {
        "L": float(certificate.growth),
        "x0": float(certificate.x0),
        "offsets_checked": certificate.offsets_checked,
    }
    generations = {"generations_checked": depth}
    # exact identities: sums of exact rational residuals, bound 0
    assertions = [
        Assertion("interval_length_identity", length_residual, "<=", 0, generations),
        Assertion("quadratic_growth_bound", growth_residual, "<=", 0, growth),
    ]
    x0_certificate = {
        "x0": _number_str(certificate.x0),
        "growth": _number_str(certificate.growth),
        "delta0": _number_str(certificate.delta0),
        "g_min": _number_str(certificate.g_min),
        "offsets_checked": certificate.offsets_checked,
        "left_gap": [_number_str(end) for end in certificate.left_gap],
        "left_defect": _number_str(certificate.left_defect),
    }
    tables = {"alphas": [str(a) for a in system.alphas], "x0_certificate": x0_certificate}
    return assertions, tables


def _violators(axis: np.ndarray, lap: np.ndarray, dist_x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, y, laplacian, horizontal distance, Euclidean distance) at the
    violating nodes (lap > 0) of a cap on the grid ``axis``, in C order;
    ``dist_x`` holds each column's horizontal distance to the segment."""
    i, j = np.nonzero(lap > 0.0)
    dh = dist_x[i]
    return axis[i], axis[j], lap[i, j], dh, np.hypot(dh, axis[j])


def _run_hartogs_scan(params: dict, expect_violation: bool, outdir: Path):
    # the one place that knows the cap kind: only the staircase has a segment
    cap = params["cap"]
    spacing = float(params["spacing"])
    if cap == "ball":
        field = hartogs_ball_domain(spacing=spacing)
        dist_x = np.full(field.axis().shape, np.nan)
    elif cap == "staircase":
        domain = hartogs_staircase(alpha1=params["alpha1"], spacing=spacing)
        field = domain.cap
        dist_x = interval_distance(field.axis(), domain.columns)
    else:
        raise ParameterError(f"unknown hartogs-scan cap {cap!r} (ball | staircase)")
    scan_radius = float(params["scan_radius"])
    scan = subharmonicity_scan(field, scan_radius=scan_radius)
    lap = scan.laplacian
    violators = _violators(field.axis(), lap, dist_x)
    _write_csv(
        outdir / "violators.csv",
        ["x", "y", "laplacian", "dist_horizontal", "dist_euclidean"],
        zip(*(column.tolist() for column in violators)),
    )
    n_viol = scan.violating_count()
    _, _, _, dist_h, dist_e = violators  # horizontal and Euclidean distances
    far = _reduce(np.max, lap[scan.scanned & (dist_x[:, None] > _FAR_FIELD)])
    h = field.spacing
    reach = 2.0 * h + 1e-12  # 2h, plus float slack

    if expect_violation:
        farthest = _reduce(np.max, dist_h)
        assertions = [
            Assertion("violating_nodes_present", n_viol, ">", 0),
            Assertion("violations_within_2h_of_base_kinks", farthest, "<=", reach, {"h": h}),
            Assertion("far_nodes_strictly_subharmonic", far, "<=", -0.5),
        ]
    else:
        assertions = [Assertion("no_violating_nodes", n_viol, "<=", 0)]
    table = {
        "kind": cap,
        "spacing": h,
        "scan_radius": scan_radius,
        "scanned_count": scan.scanned_count(),
        "violating_count": n_viol,
        "max_laplacian": _reduce(np.max, lap[scan.scanned]),
    }
    if cap == "staircase":
        # the violators' distances to the perturbed segment (maxima 0.0 when none)
        widest = float(np.max(dist_h, initial=0.0))
        radius, excess = segment_mean_excess(field, lap, dist_x)
        p = domain.params
        table.update(
            alignment={
                "count": int(dist_h.size),
                "max_horizontal": widest,
                "max_euclidean": float(np.max(dist_e, initial=0.0)),
                "within_2h": widest <= reach,
            },
            far_field_max=far,
            mean_checks={
                "radius": radius,
                "nodes": int(excess.size),
                "positive": int(np.count_nonzero(excess > 0.0)),
                "max_excess": _reduce(np.max, excess),
            },
            empirical_c3=p["c3"],
            implied_growth_threshold=p["growth_threshold"],
            growth=p["growth"],
            growth_below_threshold=p["growth"] < p["growth_threshold"],
        )
    return assertions, {"scan": table}


def _run_cantor_potential(params: dict, expect_violation: bool, outdir: Path):
    alpha = float(params["alpha"])
    # every square set first: a bad generation exits 2 before any work
    square_set = build_square_cantor(alpha, int(params["generation"]))
    cert_sets = [build_square_cantor(alpha, int(n)) for n in params["cert_generations"]]
    dim_set = build_square_cantor(alpha, int(params["dim_generation"]))
    graph_sc = build_square_cantor(alpha, int(params["graph_generation"]))
    measure = frostman_measure(square_set)
    potential = GreenPotential(measure)

    theta = 2.0 * math.pi * np.arange(512) / 512
    boundary_max = float(
        np.abs(potential.grid_values(np.cos(theta), np.sin(theta))).max()
    )
    single = GreenPotential(AtomicMeasure(locations=[0j], masses=[1.0]))
    anchor_err = abs(single(0.5 + 0j) - math.log(2.0))
    recovered = disc_mass_recovery(potential)

    constants = []
    for cert_set in cert_sets:
        cert = frostman_certificate(cert_set)
        constants.append((cert_set.generation, cert.constant, cert.samples))
    ratios = [b[1] / a[1] for a, b in zip(constants, constants[1:])]

    a = dim_set.ratio
    planar = box_dimension(dim_set.centers().T, [_START_SIDE * a**k for k in range(1, 7)])
    graph_pot = GreenPotential(frostman_measure(graph_sc))
    graph_cols = graph_set_points(graph_sc, graph_pot, n_angles=int(params["graph_angles"]))
    graph = box_dimension(graph_cols, [2.0**-k for k in range(3, 9)])
    # no CSV before both regressions: a scale too fine for the points exits 2 with none
    _write_csv(outdir / "growth.csv", ["n", "C", "samples"], constants)
    _write_csv(
        outdir / "dimension.csv",
        ["set", "scale", "count"],
        [("planar", s, c) for s, c in zip(planar.scales, planar.counts)]
        + [("graph", s, c) for s, c in zip(graph.scales, graph.counts)],
    )

    total = measure.total_mass()
    mass_gap = abs(recovered - 1.0)
    planar_gap = abs(planar.slope - alpha)
    graph_gap = abs(graph.slope - (1.0 + alpha))
    # 0.5 <= ratio <= 2 for every consecutive pair, as one band on |log2 ratio|
    log_ratio = float(np.max([abs(math.log2(r)) for r in ratios]))
    assertions = [
        Assertion("total_mass_exact", abs(total - 1.0), "<=", 0.0, {"total": total}),
        Assertion("boundary_vanishing", boundary_max, "<=", 1e-10),
        Assertion("single_atom_anchor", anchor_err, "<=", 1e-12),
        Assertion("disc_mass_recovery", mass_gap, "<=", 0.02, {"recovered": recovered}),
        Assertion("growth_constant_stable", log_ratio, "<=", 1.0, {"ratios": ratios}),
        Assertion("planar_box_dimension", planar_gap, "<=", 0.1, {"slope": planar.slope}),
        Assertion("graph_box_dimension", graph_gap, "<=", 0.15, {"slope": graph.slope}),
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
        "re_zeta": DiscField.from_function(spacing, lambda x, y: x),
        "abs2": DiscField.from_function(spacing, lambda x, y: x * x + y * y),
        "abs4": DiscField.from_function(spacing, lambda x, y: (x * x + y * y) ** 2),
    }
    radii = [float(r) for r in params["radii"]]
    # the fields share one grid, so each radius's weights serve all three
    weights = {r: _log_weights(fields["re_zeta"], r) for r in radii}
    assertions = []
    rows = []
    for name, disc in fields.items():
        lap = disc.laplacian_field()
        reports = [green_identity_report(disc, r, weights[r], lap) for r in radii]
        rows += [(name, r, g.residual, g.circle_mean, g.area_term) for r, g in zip(radii, reports)]
        worst = float(np.max([g.residual for g in reports]))
        assertions.append(Assertion(f"green_identity_{name}", worst, "<=", 1e-5, {"radii": radii}))
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
    for pair in params["t_values"]:
        if len(pair) != 2:
            raise ParameterError(f"t_values items are [re, im] pairs, got {pair!r}")
        t = complex(float(pair[0]), float(pair[1]))
        ratio = slice_ratio_min(slice_graph(two_disc, t, grid))
        rows.append((t.real, t.imag, ratio, 1.0 + abs(t) ** 2))
    _write_csv(
        outdir / "slices.csv", ["t_re", "t_im", "ratio_min", "expected"], rows
    )
    _, _, ratios, expected = np.array(rows).T
    context = {"t_count": len(rows)}
    assertions = [
        Assertion("slice_ratio_identity", np.max(np.abs(ratios - expected)), "<=", 1e-10, context),
        Assertion("slice_ratio_lower_bound", np.min(ratios), ">=", 1.0, context),
    ]
    return assertions, {"slices": [list(r) for r in rows]}


SCENARIOS = {
    "levi-check": Scenario(
        "levi-check",
        "Levi sign scan of a graph model (ball or the concave quadric)",
        {"model": "ball", "spacing": 0.025, "extent": 17, "tol": 1e-8},
        {
            "spacing": ((">=", 1e-4),),  # far finer, the verdict fails falsely (at 1e-9)
            "extent": (("<=", 121),),  # about 300 B a node: 586 MB peak at 121^3
            "tol": ((">=", 0),),  # the pseudoconvexity bound: below 0 it passes concave nodes
        },
        _run_levi_check,
    ),
    "mollify-sweep": Scenario(
        "mollify-sweep",
        "Mollified sign certificate sweep on the shipped staircase case",
        {"spacing": 1.0 / 128.0, "epsilon": 1e-2, "count": 7},
        # the case is built first, so the certificate's own limits are
        # restated here; its exponents alpha and p are the case's own
        {
            # v and phi are broadcast views, so the first kernel (delta = 1/4)
            # binds: (2 floor(delta/h) + 1)^3 taps, 257^3 and 129.5 MB per array
            # at 1/512, where make_kernel alone peaks at 476 MB traced.  Coarser
            # than 1/100, it leaves no usable interior (1/80, 1/88) or the fitted
            # slope leaves its band (at most spacings tried from 1/84.5 to 1/99.5)
            "spacing": ((">=", 1.0 / 512.0), ("<=", 1.0 / 100.0)),
            "epsilon": ((">", 0),),  # a slack: the sweep passes when every m(delta) >= -epsilon
            "count": ((">=", 2),),  # the decay slope is fitted through the deltas
        },
        _run_mollify_sweep,
    ),
    "staircase-build": Scenario(
        "staircase-build",
        "Exact Cantor staircase identities and the quadratic growth point",
        {"alpha1": "9/10", "depth": 12, "n_offsets": 1000},
        # default_alphas checks alpha1 and the depth budget before any work
        {
            # at depth 1 f_1 has slope1 itself, so find_x0's base point sits on
            # the interval boundary: it raises only after intervals.csv is out
            "depth": ((">=", 2),),
            "n_offsets": ((">=", 1),),  # find_x0 checks it only after the fat_F work
        },
        _run_staircase_build,
    ),
    "hartogs-scan": Scenario(
        "hartogs-scan",
        "Subharmonicity scan of a Hartogs cap (ball or staircase)",
        {"cap": "ball", "alpha1": "99/100", "spacing": 1.0 / 512.0, "scan_radius": 0.96},
        {
            "alpha1": ((">", 0), ("<", 1)),  # checked whatever the cap: no report records a bad one
            # 598 MB peak at 1/2048; from 0.149 the staircase scan raises DomainError
            "spacing": ((">=", 1.0 / 2048.0), ("<=", 1.0 / 8.0)),
            "scan_radius": ((">", 0), ("<", 1)),  # the scan rejects it only after the cap build
        },
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
        {
            "cert_generations": ((">=", 2),),  # growth_constant_stable compares consecutive ones
            "graph_angles": ((">=", 1),),  # below 1, graph_set_points fails after the potentials
        },
        _run_cantor_potential,
    ),
    "green-identity": Scenario(
        "green-identity",
        "Normalized Green identity residuals on reference disc fields",
        {"spacing": 1.0 / 512.0, "radii": [0.25, 0.5, 1.0]},
        {
            "spacing": ((">=", 1.0 / 2048.0),),  # at 1/2048 each disc array takes 134 MB
            "radii": ((">=", 1),),  # every check over no radius passes vacuously
        },
        _run_green_identity,
    ),
    "slice-check": Scenario(
        "slice-check",
        "Slice-map ratio checks for the two-disc model",
        {"spacing": 0.1, "extent": 7, "t_values": [[0.1, 0.0], [0.0, 0.05], [0.08, -0.06]]},
        {
            "spacing": ((">=", 1e-4),),  # far finer, the verdict fails falsely (at 1e-300)
            "extent": (("<=", 385),),  # each slice is one 3-D array: 564 MB peak at 385^3
            "t_values": ((">=", 1),),  # every check over no slice passes vacuously
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


def _check_ranges(spec: Scenario, params: dict) -> None:
    """Raise ParameterError unless each parameter (a list: its length) passes its ranges."""
    for key, comparisons in spec.ranges.items():
        value = params[key]
        if isinstance(value, list):
            key, value = f"len({key})", len(value)
        try:
            number = _as_fraction(value)
        except ParameterError:  # NaN, infinite or not a fraction: fails every comparison
            number = math.nan
        for op, bound in comparisons:
            if not _OPS[op](number, bound):
                raise ParameterError(f"{key} must be {op} {bound!r} for {spec.name}, got {value!r}")


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
    _check_ranges(scenario, params)
    seed = config.get("seed", 0)
    if type(seed) is not int:
        raise UsageError(f"config field 'seed' must be an integer, got {seed!r}")
    try:
        outdir = Path(config.get("outdir", f"out/{name}"))
    except TypeError as exc:
        raise UsageError(f"config field 'outdir' is malformed: {exc}") from None
    expect_violation = config.get("expect_violation", False)
    if not isinstance(expect_violation, bool):
        # bool("false") is True: a loose flag would invert pass semantics
        raise UsageError(
            f"config field 'expect_violation' must be true or false, got {expect_violation!r}"
        )
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create outdir {str(outdir)!r}: {exc}") from None

    start = time.perf_counter()
    try:
        assertions, tables = scenario.runner(params, expect_violation, outdir)
    except ConsistencyError as exc:
        # two routes disagreeing is a failed check of the run, not a crash
        check = f"dual_route_agreement_{exc.where}"
        bound = _DUAL_TOL * exc.scale
        assertions = [Assertion(check, exc.worst, "<=", bound, {"scale": exc.scale})]
        tables = {}
    elapsed = time.perf_counter() - start

    report = {
        "scenario": name,
        "seed": seed,
        "expect_violation": expect_violation,
        "parameters": params,
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail} for a in assertions
        ],
        "passed": all(a.passed for a in assertions),
        "tables": tables,
    }
    text = _to_json(report)
    try:
        with open(outdir / "report.json", "w") as handle:
            handle.write(text + "\n")
        with open(outdir / "runtime.txt", "w") as handle:
            handle.write(f"runtime_seconds: {elapsed:.3f}\n")
    except OSError as exc:
        # the scenario's CSVs, written before, stay in outdir
        raise UsageError(f"cannot write report in {str(outdir)!r}: {exc}") from None
    return json.loads(text), outdir


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
        for a in report["assertions"]:
            if not a["passed"]:
                d = a["detail"]
                print(
                    f"assertion failed: {a['name']} (value {d['value']} {d['op']} {d['bound']})",
                    file=sys.stderr,
                )
        return 1
    print(f"{report['scenario']}: {len(report['assertions'])} assertions passed "
          f"({outdir / 'report.json'})")
    return 0


def _cmd_list(args) -> int:
    if args.json:
        payload = {
            name: {"description": s.description, "defaults": s.defaults}
            for name, s in sorted(SCENARIOS.items())
        }
        print(_to_json(payload))
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
