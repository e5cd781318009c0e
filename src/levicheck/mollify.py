"""Radial mollifiers, shrinking-grid convolution, and the mollified-sign
certificate for the Delta_tau operator.

The certificate machinery answers one question: given fields v, phi on a
common grid with -Delta_{tau(phi)} v >= 0 a.e., how negative can
-Delta_{tau(phi)}(v * theta_delta) get on the shrunken grid U^delta, and at
what rate does the worst defect m(delta) decay?  For coefficients tau(phi)
with gradient Holder exponent alpha and v with second derivatives controlled
in L^p the defect is O(delta^{alpha - 3/p}); the sweep measures the exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy.fft import irfftn, next_fast_len, rfftn

from .fields import (
    Grid3,
    ParameterError,
    Regularity,
    ScalarField3,
    StencilError,
    stable_sum,
)
from .levi import _min_neg_delta_tau, _neg_delta_tau_slabs, tau_fields
from .staircase import build_cantor, fat_F


class UnderResolvedKernelError(Exception):
    """Kernel support spans fewer than two grid cells."""


class HypothesisError(Exception):
    """An input field fails a sign hypothesis away from its declared kinks."""


# -- kernel -----------------------------------------------------------------


def bump_profile(r):
    """exp(-1/(1-r^2)) on [0,1), zero beyond; the standard smooth bump."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        t = 1.0 - r[inside] ** 2
        out[inside] = np.exp(-1.0 / t)
    return out if out.ndim else float(out)


@lru_cache(maxsize=1)
def kernel_profile_constants() -> tuple[float, float]:
    """(normalization, axis second moment m2) of the unit-ball bump.

    normalization * exp(-1/(1-r^2)) integrates to 1 over the unit ball of
    R^3; m2 is its second moment along any single axis.
    """
    # imported here: no standard run needs it, and scipy.integrate is slow to load
    from scipy.integrate import quad

    mass_raw, mass_err = quad(
        lambda r: 4.0 * math.pi * r * r * math.exp(-1.0 / (1.0 - r * r)),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    mom_raw, mom_err = quad(
        lambda r: (4.0 * math.pi / 3.0) * r**4 * math.exp(-1.0 / (1.0 - r * r)),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if mass_err > 1e-11 or mom_err > 1e-11:
        raise ArithmeticError("kernel quadrature did not converge")
    c = 1.0 / mass_raw
    return c, c * mom_raw


@dataclass(frozen=True)
class BumpKernel:
    """theta_delta sampled on the cell lattice, renormalized to unit mass.

    weights has shape (2R+1,)*3 with R = floor(delta/spacing); the tap at
    offset (a,b,c) multiplies the field value spacing*(a,b,c) away.  The
    discrete mass is exactly 1 by construction; the discrete axis second
    moment tracks the continuum value delta^2 * m2 to O((spacing/delta)^2).
    """

    delta: float
    spacing: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def cell_radius(self) -> int:
        return (self.weights.shape[0] - 1) // 2

    @property
    def margin(self) -> int:
        """Cells to drop per face so every kept node is > delta from the edge."""
        return self.cell_radius + 1

    def mass(self) -> float:
        return stable_sum(self.weights)

    def axis_second_moment(self) -> float:
        """Discrete second moment along one axis, same on all axes by symmetry."""
        r = self.cell_radius
        d = self.spacing * np.arange(-r, r + 1)
        return stable_sum(self.weights * (d[:, None, None] ** 2))

    def continuum_second_moment(self) -> float:
        return self.delta**2 * kernel_profile_constants()[1]


def make_kernel(delta: float, spacing: float) -> BumpKernel:
    """Discretize theta_delta on a lattice of the given spacing."""
    delta = float(delta)
    spacing = float(spacing)
    if not delta > 0.0:
        raise ParameterError("kernel radius must be positive")
    if not spacing > 0.0:
        raise ParameterError("spacing must be positive")
    if delta < 2.0 * spacing:
        raise UnderResolvedKernelError(
            f"kernel radius {delta} spans fewer than 2 cells at spacing {spacing}"
        )
    radius = int(math.floor(delta / spacing + 1e-12))
    d = spacing * np.arange(-radius, radius + 1)
    rr = np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2) / delta
    w = bump_profile(rr)
    total = float(w.sum())
    if not total > 0.0:
        raise UnderResolvedKernelError("no lattice node carries kernel mass")
    return BumpKernel(delta=delta, spacing=spacing, weights=w / total)


# -- convolution ------------------------------------------------------------


@dataclass(frozen=True)
class MollifiedField:
    """v * theta_delta restricted to U^delta = nodes > delta from the boundary."""

    base: ScalarField3
    delta: float
    kernel: BumpKernel
    field: ScalarField3

    @property
    def margin(self) -> int:
        return self.kernel.margin

    def base_window(self) -> np.ndarray:
        """The base samples over the same index box as `field`."""
        m = self.margin
        sel = tuple(slice(m, n - m) for n in self.base.grid.extents)
        return self.base.values[sel]

    def sup_distance_to_base(self) -> float:
        return float(np.max(np.abs(self.field.values - self.base_window())))


def convolve3(v: ScalarField3, delta: float) -> MollifiedField:
    """Discrete convolution with theta_delta on the shrunken grid U^delta.

    Output nodes keep a full kernel stencil inside the base grid and sit
    strictly more than delta from its boundary faces, so no zero padding
    enters the sum.  With n nodes on an axis and a kernel k = 2R + 1 taps
    wide, each axis is padded to next_fast_len(n + k - 1, True), the
    length of the full linear convolution rounded up to a fast real-FFT
    size, so the cyclic product of the two rfftn spectra is that linear
    convolution.  The output is its core block [k : n - 1] on every axis,
    n - 2(R + 1) nodes: the valid-mode block [k - 1 : n] less one node per
    face.  The values are bitwise those of the valid-mode
    fftconvolve(v, weights)[1:-1, 1:-1, 1:-1], which tests check.
    """
    kernel = make_kernel(delta, v.grid.spacing)
    margin = kernel.margin
    if any(n - 2 * margin < 5 for n in v.grid.extents):
        raise StencilError(
            f"kernel radius {delta} leaves no usable interior at extents {v.grid.extents}"
        )
    k = kernel.weights.shape[0]
    fshape = [next_fast_len(n + k - 1, True) for n in v.grid.extents]
    spectrum = rfftn(v.values, fshape)
    spectrum *= rfftn(kernel.weights, fshape)
    full = irfftn(spectrum, fshape)
    core = np.ascontiguousarray(full[tuple(slice(k, n - 1) for n in v.grid.extents)])
    sub = Grid3(
        tuple(o + v.grid.spacing * margin for o in v.grid.origin),
        v.grid.spacing,
        tuple(n - 2 * margin for n in v.grid.extents),
    )
    smoothed = ScalarField3(sub, core, Regularity("smooth"))
    return MollifiedField(base=v, delta=float(delta), kernel=kernel, field=smoothed)


# -- the mollified-sign certificate -----------------------------------------

_KINK_NORMALS = {
    "xi1": (1.0, 0.0, 0.0),
    "xi2": (0.0, 1.0, 0.0),
    "xi3": (0.0, 0.0, 1.0),
    "xi1+xi2": (1.0, 1.0, 0.0),
    "xi1+xi3": (1.0, 0.0, 1.0),
    "xi2+xi3": (0.0, 1.0, 1.0),
}


def kink_plane_mask(grid: Grid3, kink_planes, width_cells: float = 2.5) -> np.ndarray:
    """Boolean mask of nodes within width_cells*h of any declared kink plane.

    Planes are ("xi1"|"xi2"|"xi3"|"xi1+xi2"|"xi1+xi3"|"xi2+xi3", value) pairs,
    meaning {coordinate combination == value}.
    """
    mask = np.zeros(grid.shape, dtype=bool)
    if not kink_planes:
        return mask
    x1m, x2m, x3m = grid.mesh()
    width = width_cells * grid.spacing
    for spec, value in kink_planes:
        try:
            n1, n2, n3 = _KINK_NORMALS[spec]
        except KeyError:
            raise ParameterError(f"unknown kink plane spec {spec!r}") from None
        coord = n1 * x1m + n2 * x2m + n3 * x3m
        mask |= np.abs(coord - float(value)) <= width
    return mask


def default_delta_sweep(spacing: float, count: int = 7, base_cells: int = 16) -> tuple[float, ...]:
    """Half-dyadic sweep delta_k = base_cells*h * 2^{-k/2}; the default seven
    points run from 16h down to exactly 2h.

    Seven full-octave steps would span a factor 64, which cannot fit between
    the 2h resolution floor and the domain size on any shipped grid, so the
    sweep halves delta every second step instead."""
    if count < 2:
        raise ParameterError("sweep needs at least 2 points")
    if base_cells < 2:
        raise ParameterError("sweep must start at or above 2h")
    base = float(base_cells) * float(spacing)
    return tuple(base * 2.0 ** (-0.5 * k) for k in range(count))


@dataclass(frozen=True)
class CertificateReport:
    """Result of one mollified-sign sweep.

    m_values[k] = min over U^{delta_k} of -Delta_{tau(phi)}(v*theta_{delta_k});
    passed means every m_value is >= -epsilon.  fitted_slope is the log-log
    slope of max(-m, 1e-14) against delta, to be compared with alpha - 3/p.
    """

    epsilon: float
    alpha: float
    p: float
    deltas: tuple[float, ...]
    m_values: tuple[float, ...]
    fitted_slope: float
    passed: bool
    rate_target: float
    hypothesis_min: float

    def to_json(self) -> str:
        payload = {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "p": self.p,
            "deltas": list(self.deltas),
            "m_values": list(self.m_values),
            "fitted_slope": self.fitted_slope,
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_SLOPE_FLOOR = 1e-14


def _hypothesis_extremes(v: ScalarField3, tau1, tau2, kinks: np.ndarray):
    """(min, max|.|, argmin node) of raw = -Delta_tau v over the finite
    interior nodes outside the kinks mask; node is None if there are none.

    The values are those of raw = -delta_tau_fields(v.hessian_fields(),
    tau1, tau2) over the whole grid, but raw is taken slab by slab
    (levi._neg_delta_tau_slabs), so no whole-grid Hessian is built.  Min
    and max are exact, so they merge across slabs bit for bit, and the
    first slab to reach the minimum holds its first node in C order, the
    node np.argmin picks on the whole grid.
    """
    low = math.inf
    peak = 0.0
    node = None
    for planes, raw in _neg_delta_tau_slabs(v, tau1, tau2):
        valid = np.isfinite(raw) & ~kinks[planes, 1:-1, 1:-1]
        if not valid.any():
            continue
        peak = max(peak, float(np.max(np.abs(raw[valid]))))
        slab_min = float(np.min(raw[valid]))
        if slab_min < low:
            low = slab_min
            i, j, k = np.unravel_index(int(np.argmin(np.where(valid, raw, np.inf))), raw.shape)
            node = (i + planes.start, j + 1, k + 1)
    return low, peak, node


def mollified_sign_certificate(
    v: ScalarField3,
    phi: ScalarField3,
    alpha: float,
    p: float,
    epsilon: float,
    deltas=None,
    kink_planes=(),
    hypothesis_tol: float | None = None,
) -> CertificateReport:
    """Sweep m(delta) = min over U^delta of -Delta_{tau(phi)}(v*theta_delta).

    Preconditions: p > 3, alpha in (3/p, 1), v and phi share one grid, and
    phi's declared regularity certifies a gradient Holder class inside the
    valid exponent range.  The raw hypothesis -Delta_{tau(phi)} v >= 0 is
    checked by finite differences away from declared kink planes; failure
    raises HypothesisError.  Convex kinks hidden in v would carry negative
    distributional mass that the pointwise check cannot see, but the sweep
    itself exposes them: their defect grows like -1/delta and fails the
    m >= -epsilon assertion.
    """
    alpha = float(alpha)
    p = float(p)
    epsilon = float(epsilon)
    if not p > 3.0:
        raise ParameterError(f"p must exceed 3, got {p}")
    if not 3.0 / p < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (3/p, 1) = ({3.0 / p}, 1), got {alpha}")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    if v.grid != phi.grid:
        raise ParameterError("v and phi must share one grid")
    if phi.regularity.tag == "lipschitz":
        raise ParameterError("phi must declare a gradient class: smooth, c11 or c1alpha")
    if phi.regularity.tag == "c1alpha" and not phi.regularity.alpha > 3.0 / p:
        raise ParameterError(
            f"phi gradient Holder exponent {phi.regularity.alpha} not above 3/p = {3.0 / p}"
        )

    h = v.grid.spacing
    if deltas is None:
        deltas = default_delta_sweep(h)
    deltas = tuple(float(d) for d in deltas)
    if any(d < 2.0 * h for d in deltas):
        raise UnderResolvedKernelError(f"sweep contains deltas below 2h = {2.0 * h}")

    tau1, tau2 = tau_fields(phi.gradient_fields())
    hyp_min, peak, node = _hypothesis_extremes(v, tau1, tau2, kink_plane_mask(v.grid, kink_planes))
    if node is None:
        raise ParameterError("kink planes exclude every interior node")
    scale = 1.0 + peak
    tol = (1e-9 * scale) if hypothesis_tol is None else float(hypothesis_tol)
    if hyp_min < -tol:
        raise HypothesisError(
            f"-Delta_tau v = {hyp_min:.6e} < -{tol:.1e} at node {node}, "
            "away from declared kinks"
        )

    m_values = []
    for d in deltas:
        mol = convolve3(v, d)
        m = mol.margin
        sel = tuple(slice(m, n - m) for n in v.grid.extents)
        m_values.append(_min_neg_delta_tau(mol.field, tau1[sel], tau2[sel]))
    m_arr = np.array(m_values)

    log_d = np.log(np.array(deltas))
    log_m = np.log(np.maximum(-m_arr, _SLOPE_FLOOR))
    fitted = float(np.polyfit(log_d, log_m, 1)[0])

    return CertificateReport(
        epsilon=epsilon,
        alpha=alpha,
        p=p,
        deltas=deltas,
        m_values=tuple(m_values),
        fitted_slope=fitted,
        passed=bool(np.all(m_arr >= -epsilon)),
        rate_target=alpha - 3.0 / p,
        hypothesis_min=hyp_min,
    )


# -- the staircase certificate case -----------------------------------------


@dataclass(frozen=True)
class _PiecewisePoly:
    """Polynomial pieces in local coordinates s = x - breaks[i]."""

    breaks: tuple[float, ...]
    polys: tuple[Polynomial, ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.polys) - 1)
        out = np.empty_like(x)
        for i, p in enumerate(self.polys):
            sel = idx == i
            if sel.any():
                out[sel] = p(x[sel] - self.breaks[i])
        return out

    def double_antiderivative(self) -> "_PiecewisePoly":
        polys = []
        value = 0.0
        slope = 0.0
        for i, p in enumerate(self.polys):
            q = p.integ(2) + Polynomial([value, slope])
            polys.append(q)
            width = self.breaks[i + 1] - self.breaks[i]
            value = q(width)
            slope = slope + p.integ(1)(width)
        return _PiecewisePoly(self.breaks, tuple(polys))


def _plateau_profile(a0: float, a1: float, b1: float, b0: float) -> tuple[_PiecewisePoly, _PiecewisePoly]:
    """C^3 plateau P: 0 outside (a0, b0), 1 on [a1, b1], septic smoothstep
    shoulders; returned with its double antiderivative."""
    if not 0.0 <= a0 < a1 < b1 < b0:
        raise ParameterError("plateau breakpoints must increase")
    step = Polynomial([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])
    rise = step(Polynomial([0.0, 1.0 / (a1 - a0)]))
    fall = step(Polynomial([1.0, -1.0 / (b0 - b1)]))
    profile = _PiecewisePoly(
        (0.0, a0, a1, b1, b0, 64.0),
        (Polynomial([0.0]), rise, Polynomial([1.0]), fall, Polynomial([0.0])),
    )
    return profile, profile.double_antiderivative()


@dataclass(frozen=True)
class StaircaseCase:
    """One staircase certificate case: the fields plus construction data.

    deficit[j] = g_sup^2 - ghat(xi2_j)^2 where ghat is the 2h box average of
    the coefficient g = g_base + g_amp * f(xi2/stretch); road_top is the
    u = xi1 + xi2 interval where the plateau equals 1 and the certificate is
    tight.  holder_exponent is the gradient Holder exponent declared on phi
    and holder_constant the matching seminorm measured over all grid pairs.
    """

    v: ScalarField3
    phi: ScalarField3
    g_values: np.ndarray
    ghat_values: np.ndarray
    deficit: np.ndarray
    g_sup: float
    scale: float
    road_top: tuple[float, float]
    alphas: tuple[Fraction, ...]
    stretch: float
    holder_exponent: float
    holder_constant: float

    def delta_sweep(self, count: int = 7) -> tuple[float, ...]:
        """The sweep this case is sized for: 32h down to 4h, half-dyadic."""
        return default_delta_sweep(self.v.grid.spacing, count=count, base_cells=32)


def staircase_deficit_fields(
    spacing: float = 1.0 / 128.0,
    spans: tuple[float, float, float] = (1.0, 1.0, 0.5625),
    alphas: tuple = (Fraction(1, 5), Fraction(7, 10), Fraction(7, 10)),
    stretch: Fraction = Fraction(5, 4),
    g_base: float = 1.0,
    g_amp: float = 1.0,
    scale: float = 0.25,
    plateau: tuple[float, float, float, float] = (0.25, 0.50, 1.50, 1.75),
    holder: float = 0.9,
) -> StaircaseCase:
    """Staircase-built test pair (v, phi) with an exact discrete certificate.

    phi(xi) = -(g_base xi2 + g_amp L F1(xi2/L)) with F1 = int_0^x f and
    L = stretch, so the coefficient pair is tau1 = g/4, tau2 = 1/2 with
    g = g_base + g_amp f(xi2/L); the centered first difference of phi
    reproduces exactly the 2h box average ghat of g.  v stacks a smooth
    plateau road along u = xi1 + xi2 against the discrete double sum of the
    deficit g_sup^2 - ghat^2 and the closing lift -(1 + g_sup^2) xi2^2 / 2,
    which makes the interior identity

        -Delta_tau v = (scale/16)(1 + ghat^2)(1 - P~(xi1 + xi2)) >= 0

    hold at every node to rounding accuracy (P~ the discretized plateau),
    with equality on the slab P = 1.  Mollification then feels only the
    sliding average of the deficit, so m(delta) = -(scale/16) max (theta_delta
    * deficit - deficit) is a pure response of the staircase cascade.

    The shipped gap schedule opens with a wide first gap, which keeps the
    whole top of the 32h-to-4h sweep inside the first kept interval, and
    continues with near-constant ratios whose cascade scales sit inside the
    sweep window; the stretch aligns those scales so the fitted log-log
    decay of the sweep lands near alpha - 3/p = 0.4 for the declared
    (alpha, p) = (0.9, 6).  The plateau slab is wide enough that a kernel
    footprint of radius delta = 32h fits inside it along u, so the deficit
    response is the only contribution to m(delta) at every sweep point.
    """
    h = Fraction(spacing)
    lam = Fraction(stretch)
    if lam <= 0:
        raise ParameterError(f"stretch must be positive, got {stretch!r}")
    extents = tuple(int(round(Fraction(s) / h)) + 1 for s in spans)
    if any(n < 9 for n in extents):
        raise ParameterError(f"extents {extents} too small for a certificate grid")
    n1, n2, n3 = extents
    fat = fat_F(build_cantor(alphas))
    f = fat.iterates.value_exact  # 0 left of 0, 1 right of 1

    def F1(x: Fraction) -> Fraction:
        # int_0^x f exactly: F = int_0^x (f - t) dt vanishes at 0 and 1
        if x <= 0:
            return Fraction(0)
        if x >= 1:
            return x - Fraction(1, 2)
        return fat.value_exact(x) + x * x / 2

    def f_box(x: Fraction, w: Fraction) -> Fraction:
        # mean of f over [x - w, x + w]: the centered difference of F1
        return (F1(x + w) - F1(x - w)) / (2 * w)

    gb = Fraction(g_base)
    ga = Fraction(g_amp)
    c = Fraction(scale)
    gstar = gb + ga
    x2 = [j * h for j in range(n2)]
    ghat = [gb + ga * f_box(x / lam, h / lam) for x in x2]
    deficit = [gstar**2 - gh**2 for gh in ghat]

    # discrete double sum: the centered second difference of g2sum returns
    # deficit[j] exactly, which is what closes the node-level identity
    g2sum = [Fraction(0), Fraction(0)]
    for j in range(1, n2 - 1):
        g2sum.append(2 * g2sum[j] - g2sum[j - 1] + h**2 * deficit[j])

    _, road2 = _plateau_profile(*plateau)
    u_nodes = float(h) * np.arange(n1 + n2 - 1)
    road_u = road2(u_nodes)
    idx = np.add.outer(np.arange(n1), np.arange(n2))
    road_12 = road_u[idx]

    x2f = np.array([float(x) for x in x2])
    axis2 = (
        np.array([float(w) for w in g2sum])
        - 0.5 * (1.0 + float(gstar) ** 2) * x2f**2
    )
    v_12 = float(c) * (road_12 + axis2[None, :])
    v_vals = np.repeat(v_12[:, :, None], n3, axis=2)

    phi_1d = np.array([-(float(gb * x + ga * lam * F1(x / lam))) for x in x2])
    phi_vals = np.broadcast_to(phi_1d[None, :, None], extents).copy()

    g_nodes = np.array([float(gb + ga * f(x / lam)) for x in x2])
    seminorm = 0.0
    for j in range(1, n2):
        gaps = np.abs(g_nodes[j:] - g_nodes[:-j])
        seminorm = max(seminorm, float(gaps.max()) / (float(j * h) ** holder))

    grid = Grid3((0.0, 0.0, 0.0), float(h), extents)
    v = ScalarField3(grid, v_vals, Regularity("c11", constant=float(c) * (1.0 + float(gstar) ** 2)))
    phi = ScalarField3(grid, phi_vals, Regularity("c1alpha", alpha=holder, constant=seminorm))
    return StaircaseCase(
        v=v,
        phi=phi,
        g_values=g_nodes,
        ghat_values=np.array([float(g) for g in ghat]),
        deficit=np.array([float(d) for d in deficit]),
        g_sup=float(gstar),
        scale=float(c),
        road_top=(plateau[1], plateau[2]),
        alphas=tuple(Fraction(a) for a in alphas),
        stretch=float(lam),
        holder_exponent=holder,
        holder_constant=seminorm,
    )


def staircase_sweep_case(spacing: float = 1.0 / 128.0) -> StaircaseCase:
    """The frozen staircase case shipped for the (alpha, p) = (0.9, 6) sweep."""
    return staircase_deficit_fields(spacing=spacing)
