"""Levi condition in C^2, graph-form rewrite, and the degenerate operator.

Conventions: z1 = x1 + i*y1, z2 = x2 + i*x3.  Graph defining functions are
rho = x1 - phi(y1, z2) with phi sampled as a ScalarField3 over
xi = (y1, Re z2, Im z2).  For real rho the ambient Levi condition reads

    rho_{z1 z1b} |rho_{z2}|^2 + rho_{z2 z2b} |rho_{z1}|^2
        - 2 Re(rho_{z1 z2b} rho_{z1b} rho_{z2})  >=  0,

and on the graph it reduces to -Delta_tau phi with tau = tau(phi).
Both routes are computed and cross-checked wherever possible.

A closed-form domain is a function (z1, z2) -> WirtingerData, the data
of its defining function (``ball``, ``g2_model``, ``hartogs_ball``, or one
that ``hartogs_lifted`` or ``from_graph_partials`` returns).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from levicheck import fields
from levicheck.fields import (
    DiscField,
    DomainError,
    Grid3,
    ParameterError,
    ScalarField3,
    StencilError,
    circle_mean,
    stable_sum,
    wirtinger_parts,
)

__all__ = [
    "DegeneratePointError",
    "ConsistencyError",
    "WirtingerData",
    "ball",
    "from_graph_partials",
    "g2_model",
    "hartogs_ball",
    "hartogs_lifted",
    "levi_condition_2d",
    "tau_fields",
    "delta_tau",
    "delta_tau_fields",
    "graph_levi_fields",
    "levi_scan",
    "LeviScan",
    "slice_graph",
    "slice_ratio_min",
    "green_identity_report",
    "GreenIdentityReport",
]

_DUAL_TOL = 1e-9
# nondegeneracy floor on |grad rho| in levi_condition_2d
_MIN_GRADIENT = 1e-8
# grid nodes per slab of _slab_pass, rounded down to whole xi1-planes (at least
# one): the slab's eight stencil rows and its complex work arrays stay a few MiB
_BLOCK = 1 << 15
# the Hessian entries the Levi quantity and Delta_tau read
_LEVI_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))


def _abs2(z):
    """|z|^2 without the sqrt/square round trip."""
    z = np.asarray(z)
    return z.real * z.real + z.imag * z.imag


class DegeneratePointError(Exception):
    """Defining-function gradient below the nondegeneracy floor."""


class ConsistencyError(Exception):
    """Two mathematically equivalent computation routes disagree.

    where names the check; worst is the largest disagreement it saw and scale
    the factor its 1e-9 tolerance multiplies (NaN where a check has no such
    numbers).
    """

    def __init__(self, message: str, where: str, worst: float = math.nan, scale: float = math.nan):
        super().__init__(message)
        self.where = where
        self.worst = float(worst)
        self.scale = float(scale)


@dataclass(frozen=True)
class WirtingerData:
    """Pointwise first/second Wirtinger derivatives of a real function of (z1, z2)."""

    rz1: complex
    rz2: complex
    rz1z1b: float
    rz2z2b: float
    rz1z2b: complex


def ball(z1: complex, z2: complex) -> WirtingerData:
    """|z1|^2 + |z2|^2 - 1: the unit ball."""
    return WirtingerData(
        rz1=np.conjugate(z1),
        rz2=np.conjugate(z2),
        rz1z1b=1.0,
        rz2z2b=1.0,
        rz1z2b=0.0,
    )


def g2_model(z1: complex, z2: complex) -> WirtingerData:
    """Re z1 - |z2|^2: the model hypersurface with a strictly concave side."""
    return WirtingerData(
        rz1=0.5,
        rz2=-np.conjugate(z2),
        rz1z1b=0.0,
        rz2z2b=-1.0,
        rz1z2b=0.0,
    )


def hartogs_lifted(
    phi_dz: Callable[[complex], complex],
    phi_lap: Callable[[complex], float],
) -> Callable[[complex, complex], WirtingerData]:
    """rho(z1, z2) = log|z1| - phi(z2): the lift of a radius-1 Hartogs cap.

    The Levi condition needs only phi's derivatives, so phi itself is
    not passed: phi_dz is d(phi)/dz and phi_lap is d^2(phi)/dz dzbar at
    z = z2.  Degenerate at z1 = 0.
    """

    def data(z1: complex, z2: complex) -> WirtingerData:
        if z1 == 0:
            raise DegeneratePointError("log|z1| lift undefined at z1 = 0")
        return WirtingerData(
            rz1=1.0 / (2.0 * z1),
            rz2=-complex(phi_dz(z2)),
            rz1z1b=0.0,
            rz2z2b=-float(phi_lap(z2)),
            rz1z2b=0.0,
        )

    return data


def hartogs_ball(z1: complex, z2: complex) -> WirtingerData:
    """The unit ball written as the Hartogs lift of phi = (1/2) log(1 - |z|^2)."""
    if abs(z2) >= 1.0:
        raise DomainError(f"|z2| = {abs(z2)} outside the Hartogs base disc")
    s = 1.0 - abs(z2) ** 2
    return hartogs_lifted(lambda z: -z.conjugate() / (2.0 * s), lambda z: -0.5 / s**2)(z1, z2)


def from_graph_partials(
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
) -> Callable[[complex, complex], WirtingerData]:
    """rho = x1 - phi with phi given by its real gradient and Hessian over
    xi = (y1, Re z2, Im z2); the Levi condition needs no value of phi."""

    def data(z1: complex, z2: complex) -> WirtingerData:
        xi = np.array([z1.imag, z2.real, z2.imag])
        g = np.asarray(grad(xi), dtype=float)
        h = np.asarray(hess(xi), dtype=float)
        return WirtingerData(
            rz1=0.5 * (1.0 + 1j * g[0]),
            rz2=-0.5 * (g[1] - 1j * g[2]),
            rz1z1b=-0.25 * h[0, 0],
            rz2z2b=-0.25 * (h[1, 1] + h[2, 2]),
            rz1z2b=0.25j * (h[0, 1] + 1j * h[0, 2]),
        )

    return data


def levi_condition_2d(rho: Callable[[complex, complex], WirtingerData], point) -> float:
    """LHS of the ambient Levi condition at point = (z1, z2) of the domain
    whose defining function rho has the Wirtinger data rho(z1, z2); >= 0
    iff the condition holds there."""
    z1, z2 = complex(point[0]), complex(point[1])
    d = rho(z1, z2)
    grad_norm = 2.0 * math.sqrt(float(_abs2(d.rz1) + _abs2(d.rz2)))
    if grad_norm < _MIN_GRADIENT:
        raise DegeneratePointError(f"|grad rho| = {grad_norm:.3e} at {point}")
    value = (
        d.rz1z1b * float(_abs2(d.rz2))
        + d.rz2z2b * float(_abs2(d.rz1))
        - 2.0 * (d.rz1z2b * np.conjugate(d.rz1) * d.rz2).real
    )
    return float(value)


def tau_fields(g) -> tuple:
    """tau(phi) = (-1/2 dphi/dz2, 1/2 (1 + i dphi/dy1)) from phi's gradient g:
    complex arrays from g = phi.gradient_fields() (NaN ring) or a slab of it,
    or complex numbers from one node's g = phi.fd_gradient(node)."""
    dz2 = 0.5 * (g[1] - 1j * g[2])
    return -0.5 * dz2, 0.5 * (1.0 + 1j * g[0])


def _dual_gap(a, b) -> tuple[float, float]:
    """(max|a|, max|a - b|) over the entries where a and b are both finite,
    (0, 0) if there are none (empty arrays too): one block's part of a _verify."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # inf - inf is NaN: the masked pass below handles it, so no warning
    with np.errstate(invalid="ignore"):
        peak = np.max(np.abs(a), initial=0.0)
        worst = np.max(np.abs(a - b), initial=0.0)
    if not (math.isfinite(peak) and math.isfinite(worst)):
        finite = np.isfinite(a) & np.isfinite(b)
        if not finite.any():
            return 0.0, 0.0
        peak = np.max(np.abs(a[finite]))
        worst = np.max(np.abs(a[finite] - b[finite]))
    return float(peak), float(worst)


def _verify(where: str, gaps) -> None:
    """Agreement of two routes over blocks: the largest worst of the blocks'
    _dual_gaps against the global scale 1 + max peak, else ConsistencyError.
    Max is exact, so the verdict does not depend on the blocking.  Testing
    each block against its own, smaller scale would be stricter and could
    raise where the whole array passes.
    """
    worst = max((w for _, w in gaps), default=0.0)
    scale = 1.0 + max((p for p, _ in gaps), default=0.0)
    if worst > _DUAL_TOL * scale:
        raise ConsistencyError(
            f"{where}: complex and T-form differ by {worst:.3e} (scale {scale:.3e})",
            where=where,
            worst=worst,
            scale=scale,
        )


def _delta_tau_forms(hess, tau1, tau2, mix=None, lap=None):
    """Delta_tau v in its complex form and its real T-form, elementwise.

    hess[a, b] are the xi-Hessian entries of v (only (0, 0), (1, 1), (2, 2),
    (0, 1) and (0, 2) are read; a (3, 3, ...) array or a mapping keyed by
    those pairs); tau1 and tau2 broadcast against them.  mix and lap are
    hess's d2/dy1 dz2bar and d2/dz2 dz2bar (wirtinger_parts), built here
    unless passed.  Terms both forms read are built once, and each form keeps
    its expression order, so its bits; the cross term comes after the complex
    form, so that it and mix are never alive together.
    """
    weight = _abs2(tau1) * hess[0, 0]
    norm2 = _abs2(tau2)
    trace = hess[1, 1] + hess[2, 2]
    if mix is None:
        mix, lap = 0.5 * (hess[0, 1] + 1j * hess[0, 2]), 0.25 * trace
    complex_form = weight + 2.0 * np.real(1j * tau1 * np.conjugate(tau2) * mix) + norm2 * lap
    del mix, lap
    cross = np.conjugate(tau1) * tau2
    t_form = (
        weight + 0.25 * norm2 * trace + np.imag(cross) * hess[0, 1] - np.real(cross) * hess[0, 2]
    )
    return complex_form, t_form


def delta_tau_fields(hess: np.ndarray, tau1: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """Delta_tau v from its Hessian entries, checked against the T-form.

    hess = v.hessian_fields() (NaN on the ring, returned NaN there) or one
    node's v.fd_hessian(node); tau1, tau2 broadcast against it.  The whole
    array is one block: the complex form must agree with the T-form to
    1e-9 * (1 + max|complex form|) over the finite entries, else
    ConsistencyError.
    """
    complex_form, t_form = _delta_tau_forms(hess, tau1, tau2)
    _verify("delta_tau_fields", [_dual_gap(complex_form, t_form)])
    return complex_form


def delta_tau(v: ScalarField3, tau, node) -> float:
    """Delta_tau v at a node, tau = (tau1, tau2): delta_tau_fields on the
    node's fd_hessian, with the same dual-form check."""
    tau1, tau2 = tau
    return float(delta_tau_fields(v.fd_hessian(node), tau1, tau2))


def _slab_pass(field: ScalarField3, gradient: bool, visit: Callable) -> list:
    """visit(planes, g, hess) for every slab of whole interior xi1-planes of
    field, about _BLOCK nodes each (at least one plane), in slab order.

    The slabs go over fields._run_blocks, one work buffer per thread.
    planes is the slab's xi1 slice, g its gradient (None unless gradient)
    and hess maps each of _LEVI_ENTRIES to its Hessian entry, all at the
    interior nodes of those planes in stencil_planes' layout, as views of
    the thread's buffer, valid until visit returns.
    """
    n0, n1, n2 = field.grid.extents
    step = max(1, _BLOCK // (n1 * n2))
    shape = (3 * gradient + len(_LEVI_ENTRIES), min(step, n0 - 2), n1 - 2, n2 - 2)

    def run(work: np.ndarray, first: int):
        stop = min(first + step, n0 - 1)
        slab = work[:, : stop - first]
        g = slab[:3] if gradient else None
        hess = dict(zip(_LEVI_ENTRIES, slab[3 * gradient :]))
        field.stencil_planes(first, stop, g, hess)
        return visit(slice(first, stop), g, hess)

    return fields._run_blocks(range(1, n0 - 1, step), lambda: np.empty(shape), run)


def _neg_delta_tau_extremes(v: ScalarField3, tau1: np.ndarray, tau2: np.ndarray):
    """(min, max|.|, argmin node) of raw = -Delta_tau v over the finite
    interior nodes of v; (NaN, NaN, None) if there are none.

    The values are those of raw = -delta_tau_fields(v.hessian_fields(),
    tau1, tau2) over the whole grid (tau1 and tau2 of v's grid shape), but
    raw is taken slab by slab (_slab_pass), so no whole-grid
    Hessian is built.  Each slab returns its dual-form gap and its (min,
    first argmin node in C order, max|.|), or None with no valid node; the
    slabs come back in slab order, min over those tuples is the whole-grid
    minimum and the node np.argmin picks there, and max is exact, so
    neither the blocking nor the thread count moves a bit.  Delta_tau's
    dual-form check runs once, over every slab's gap.
    """

    def visit(planes: slice, _, hess):
        inner = np.s_[planes, 1:-1, 1:-1]
        complex_form, t_form = _delta_tau_forms(hess, tau1[inner], tau2[inner])
        gap = _dual_gap(complex_form, t_form)
        raw = -complex_form
        valid = np.isfinite(raw)
        if not valid.any():
            return gap, None
        i, j, k = np.unravel_index(int(np.argmin(np.where(valid, raw, np.inf))), raw.shape)
        low = float(np.min(raw[valid]))
        return gap, (low, (i + planes.start, j + 1, k + 1), float(np.max(np.abs(raw[valid]))))

    gaps, slabs = zip(*_slab_pass(v, False, visit))
    _verify("delta_tau_fields", gaps)
    found = [slab for slab in slabs if slab is not None]
    low, node, _ = min(found, default=(math.nan, None, math.nan))
    return low, max((peak for *_, peak in found), default=math.nan), node


def graph_levi_fields(phi: ScalarField3) -> np.ndarray:
    """Vectorized graph-form Levi quantity (NaN ring), cross-checked against
    the -Delta_{tau(phi)} route.

    The grid goes through _slab_pass, the one slab pass of every Delta_tau
    consumer: slabs of whole interior xi1-planes of about _BLOCK nodes, dealt
    over one thread per usable CPU, so beyond the output array the call
    allocates one set of block-sized work arrays per thread.  Each slab
    computes the gradient, the five Hessian entries the quantity reads, the
    direct form, tau and both Delta_tau forms with the whole-grid
    expressions in their order, so the values depend neither on the
    blocking nor on the thread count.  wirtinger_parts' mix and lap feed
    both routes, and tau is built from that dz2 as tau_fields builds it
    (never dz2 from tau: -2 tau1 misses dz2's bits where a part is
    subnormal or infinite).  Each slab returns its two
    _dual_gaps, in slab order, and the two checks run after the last slab,
    in the whole-grid order: Delta_tau's complex form against its T-form,
    then the direct form against -Delta_tau.  Each tests the largest
    disagreement over all slabs against the global scale 1 + max|a|, exactly
    as one whole-grid check would; a per-slab scale would be stricter.
    """
    out = np.full(phi.values.shape, np.nan)

    def visit(planes: slice, g, hess):
        dz2, lap, mix = wirtinger_parts(g, hess)
        phi_y1 = g[0]
        direct = (
            -0.25 * hess[0, 0] * _abs2(dz2)
            + 0.5 * np.real(1j * (1.0 - 1j * phi_y1) * dz2 * mix)
            - 0.25 * (1.0 + phi_y1**2) * lap
        )
        tau1, tau2 = -0.5 * dz2, 0.5 * (1.0 + 1j * phi_y1)
        del dz2
        complex_form, t_form = _delta_tau_forms(hess, tau1, tau2, mix, lap)
        out[planes, 1:-1, 1:-1] = direct
        return _dual_gap(complex_form, t_form), _dual_gap(direct, -complex_form)

    operator_gaps, levi_gaps = zip(*_slab_pass(phi, True, visit))
    _verify("delta_tau_fields", operator_gaps)
    _verify("graph_levi_fields", levi_gaps)
    return out


def _check_tol(tol: float) -> float:
    if not tol >= 0.0:
        raise ParameterError(f"tol must be >= 0, got {tol!r}")
    return tol


@dataclass
class LeviScan:
    """Grid sweep of the graph-form Levi quantity with classifications."""

    phi: ScalarField3
    values: np.ndarray
    tol: float

    def __post_init__(self) -> None:
        _check_tol(self.tol)

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def counts(self) -> dict:
        """Nodes per class, counted per xi1-plane on fields._run_blocks (exact
        integer sums, no temporary beyond a plane): a finite value v is
        near_zero if |v| <= tol, else violating (v < -tol) or pseudoconvex_ok."""

        def count(_, plane):
            v, tol = self.values[plane], self.tol
            finite = np.isfinite(v)
            masks = finite, finite & (v < -tol), finite & (v > tol)
            return np.array([np.count_nonzero(mask) for mask in masks])

        planes = fields._run_blocks(range(len(self.values)), lambda: None, count)
        n, bad, ok = map(int, sum(planes))
        return {"scanned": n, "near_zero": n - bad - ok, "violating": bad, "pseudoconvex_ok": ok}

    def least(self) -> tuple[float, list]:
        """The least finite value and the xi coordinates of its first node in
        C order; NaN at the first node when no value is finite, so a check
        of it fails."""
        values = np.where(self.finite_mask, self.values, np.inf)
        node = np.unravel_index(np.argmin(values), values.shape)
        least = float(values[node]) if self.finite_mask[node] else math.nan
        return least, self._coords(node)

    def _coords(self, nodes) -> list:
        """xi coordinates of nodes given as one index (array) per axis."""
        return [self.phi.grid.axis(k)[idx].tolist() for k, idx in enumerate(nodes)]

    def to_csv(self, path) -> None:
        """One row per finite node in C order: its xi coordinates, value and
        class (near_zero if |value| <= tol, else by sign)."""
        finite = self.values[self.finite_mask]
        classes = np.where(
            np.abs(finite) <= self.tol,
            "near_zero",
            np.where(finite > 0.0, "pseudoconvex_ok", "violating"),
        )
        rows = zip(*self._coords(np.nonzero(self.finite_mask)), finite.tolist(), classes.tolist())
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["xi1", "xi2", "xi3", "levi_value", "classification"])
            for x1, x2, x3, value, label in rows:
                writer.writerow([repr(x1), repr(x2), repr(x3), repr(value), label])


def levi_scan(phi: ScalarField3, tol: float) -> LeviScan:
    """graph_levi_fields of phi with its counts and exports; a node with
    |value| <= tol is near_zero.  ParameterError unless tol >= 0, before the scan."""
    tol = _check_tol(float(tol))
    return LeviScan(phi=phi, values=graph_levi_fields(phi), tol=tol)


def slice_graph(phi_fn, t: complex, grid: Grid3) -> ScalarField3:
    """Sample phi^t(y1, z2) = phi(y1, z2, z2 * t) on a 3-D grid.

    phi_fn takes broadcasting arrays (y1 of shape (n0, 1, 1), complex z2 and
    z3 of shape (1, n1, n2)) and returns real values that broadcast to the
    grid shape; it must cover the sheared slice, else DomainError.
    """
    x1, x2, x3 = grid.mesh()
    z2 = x2 + 1j * x3
    with np.errstate(all="ignore"):
        vals = np.asarray(phi_fn(x1, z2, z2 * complex(t)), dtype=np.float64)
    vals = np.broadcast_to(vals, grid.shape)
    if not np.isfinite(vals).all():
        raise DomainError("slice leaves the domain of phi")
    return ScalarField3(grid, vals.copy())


def slice_ratio_min(sliced: ScalarField3) -> float:
    """min of phi^t(0, z2) / |z2|^2 over grid nodes with |z2| >= r_min = 2h,
    taken on the xi1-plane nearest 0."""
    grid = sliced.grid
    r_min = 2.0 * grid.spacing
    plane = int(np.argmin(np.abs(grid.axis(0))))
    x2, x3 = np.meshgrid(grid.axis(1), grid.axis(2), indexing="ij")
    rr = x2**2 + x3**2
    mask = rr >= r_min**2
    if not mask.any():
        raise DomainError("no nodes with |z2| >= r_min")
    ratios = sliced.values[plane][mask] / rr[mask]
    return float(ratios.min())


# -- Green-formula identity on the disc -----------------------------------


def _unit_square_log_moment() -> float:
    """integral of log(1/|zeta|) over the unit square centered at 0.

    By 8-fold symmetry this is 8 * int_0^{pi/4} R^2/2 (log(1/R) + 1/2) dtheta
    with R = 1/(2 cos theta).  The value is that integral as scipy's quad
    returns it (epsabs = epsrel = 1e-13), frozen so that no code path
    computes it; the closed form 3/2 + ln(2)/2 - pi/4 rounds 1 ulp higher.
    Tests recompute both.
    """
    return 1.0611754268825242


@dataclass(frozen=True)
class GreenIdentityReport:
    circle_mean: float
    area_term: float
    residual: float


# sub-samples per cell axis where _log_weights refines a cell
_SUBSAMPLE = 4


def _log_weights(g: DiscField, r: float) -> np.ndarray:
    """Per-node integration weights for int_{D(0,r)} log(r/|zeta|) dlambda.

    Midpoint rule on full cells; the origin cell uses the exact cell
    integral; cells near the origin or the rim are refined by subsampling.
    The weights depend only on g's grid and r, so they serve every field
    on that grid.

    r must lie in [4h, 1]: the disc a DiscField is defined on is the unit
    disc.  The array returned is the window of the grid centred on the
    origin node, of half-width k = ceil(r/h) nodes: fl(h * (k + 1)) >= r,
    so every node outside it has s >= r and weight 0.  Its nodes keep the
    coordinate doubles of g.axis(), so each weight has the bits it has on
    the whole grid.

    A refined cell's weight is bit for bit the per-cell sum
    np.sum(log(r / |s|)) over its in-disc sub-samples s, taken in their
    4x4 C order.  All refined cells form one (cells, 16) array whose rows
    are packed, in-disc sub-samples first and in that order; the rows with
    k in-disc sub-samples are then summed in one np.sum over their first
    k columns.  numpy's pairwise sum of k values depends only on k and on
    the order of the values, so each weight keeps its bits.  Summing whole
    rows with zeros at the out-of-disc places would not.
    """
    h = g.spacing
    if not r <= 1.0:
        raise DomainError(f"r = {r} is not a radius in the unit disc (r <= 1)")
    if r < 4.0 * h:
        raise StencilError(f"r = {r} spans fewer than 4 cells (h = {h})")
    k = math.ceil(r / h)
    coords = g.axis()[g.half - k : g.half + k + 1]
    gx, gy = np.meshgrid(coords, coords, indexing="ij", sparse=True)
    s = np.hypot(gx, gy)
    inside = s < r
    w = np.zeros_like(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        w[inside] = h * h * np.log(r / s[inside])
    origin = (k, k)
    w[origin] = h * h * (_unit_square_log_moment() + math.log(r / h))
    refine = inside & ((np.abs(s - r) <= 1.5 * h) | (s <= 6.5 * h))
    refine[origin] = False
    a = h / _SUBSAMPLE
    offsets = (np.arange(_SUBSAMPLE) + 0.5) * a - 0.5 * h
    ox, oy = (o.ravel() for o in np.meshgrid(offsets, offsets, indexing="ij"))
    i, j = np.nonzero(refine)
    ss = np.hypot(gx[i, 0][:, None] + ox, gy[0, j][:, None] + oy)
    sub_in = ss < r
    order = np.argsort(~sub_in, axis=1, kind="stable")
    packed = np.take_along_axis(np.log(r / ss), order, axis=1)
    counts = sub_in.sum(axis=1)
    for k in np.unique(counts):
        rows = counts == k
        w[i[rows], j[rows]] = a * a * np.sum(packed[rows, :k], axis=1)
    return w


def green_identity_report(
    u: DiscField, r: float, weights: np.ndarray, lap: np.ndarray
) -> GreenIdentityReport:
    """Balance of the sub-mean-value identity at center 0, normalized so the
    constant function balances exactly:

        mean_{|zeta|=r} u = u(0) + (1/2pi) int_{D(0,r)} log(r/|zeta|) Delta u.

    The report holds the circle mean, the area term (the second summand on
    the right) and residual = |mean - u(0) - area term|.

    weights is _log_weights on u's grid at this r, the window of the grid
    centred on the origin node that holds the disc, and lap is
    u.laplacian_field() on the whole grid; a caller checking several
    fields or radii builds each once.  Only lap's block under the window
    is read: the finiteness check and the products cover the window's
    nonzero weights, in its C order.
    """
    mean = circle_mean(u, 0j, r)
    center = float(u.values[u.half, u.half])
    if not np.isfinite(center):
        raise DomainError("u undefined at the center")
    k = weights.shape[0] // 2
    lap = lap[u.half - k : u.half + k + 1, u.half - k : u.half + k + 1]
    used = weights != 0.0
    if not np.isfinite(lap[used]).all():
        raise DomainError("Laplacian undefined somewhere in the disc of integration")
    area_term = stable_sum((weights * lap)[used]) / (2.0 * math.pi)
    return GreenIdentityReport(
        circle_mean=mean, area_term=area_term, residual=abs(mean - center - area_term)
    )

