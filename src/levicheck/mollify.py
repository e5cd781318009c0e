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
)
from .levi import _neg_delta_tau_extremes, tau_fields
from .staircase import build_cantor, fat_F


class UnderResolvedKernelError(Exception):
    """Kernel support spans fewer than two grid cells."""


class HypothesisError(Exception):
    """-Delta_tau v falls below the rounding tolerance at an interior node."""


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
    weights sum to 1 up to rounding, and their axis second moment tracks
    the continuum value delta^2 * m2 (kernel_profile_constants) to
    O((spacing/delta)^2); tests check both.
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


def convolve3(v: ScalarField3, delta: float, reduced_axes=()) -> MollifiedField:
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

    reduced_axes (at most two) name axes along which v is constant; the
    certificate finds them.  The same transform then runs on v's first
    plane along those axes against the kernel summed over them, which is,
    in exact arithmetic, the 3-D result on any one plane, and the core is
    broadcast back along them as a read-only view of the full U^delta
    shape.  With no reduced axes the values are those described above.
    """
    kernel = make_kernel(delta, v.grid.spacing)
    margin = kernel.margin
    if any(n - 2 * margin < 5 for n in v.grid.extents):
        raise StencilError(
            f"kernel radius {delta} leaves no usable interior at extents {v.grid.extents}"
        )
    axes = tuple(reduced_axes)
    kept = [n for ax, n in enumerate(v.grid.extents) if ax not in axes]
    base = v.values[tuple(0 if ax in axes else slice(None) for ax in range(3))]
    k = kernel.weights.shape[0]
    fshape = [next_fast_len(n + k - 1, True) for n in kept]
    spectrum = rfftn(base, fshape)
    spectrum *= rfftn(kernel.weights.sum(axis=axes), fshape)
    full = irfftn(spectrum, fshape)
    core = np.ascontiguousarray(full[tuple(slice(k, n - 1) for n in kept)])
    sub = Grid3(
        tuple(o + v.grid.spacing * margin for o in v.grid.origin),
        v.grid.spacing,
        tuple(n - 2 * margin for n in v.grid.extents),
    )
    core = np.broadcast_to(np.expand_dims(core, axes), sub.shape)
    smoothed = ScalarField3(sub, core, Regularity("smooth"))
    return MollifiedField(base=v, delta=float(delta), kernel=kernel, field=smoothed)


# -- the mollified-sign certificate -----------------------------------------

def _invariant_axes(v: ScalarField3, phi: ScalarField3) -> tuple[int, ...]:
    """Axes along which v and phi both equal their first plane bit for bit;
    at most two, so a constant field still keeps one axis to convolve
    along; stride-0 axes skip the compare."""
    axes = []
    for ax in range(3):
        stacks = [np.moveaxis(f.values.view(np.int64), ax, 0) for f in (v, phi)]
        if all(np.array_equal(q, b[0]) for b in stacks if b.strides[0] for q in b[1:]):
            axes.append(ax)
    return tuple(axes[-2:])


def _thin(field: ScalarField3, axes) -> ScalarField3:
    """field on its first five planes along each of axes, the fewest a Grid3
    takes; where field is constant along an axis its interior planes agree."""
    sel = tuple(slice(0, 5) if ax in axes else slice(None) for ax in range(3))
    grid = Grid3(field.grid.origin, field.grid.spacing, field.values[sel].shape)
    return ScalarField3(grid, field.values[sel], field.regularity)


@dataclass(frozen=True)
class CertificateReport:
    """Result of one mollified-sign sweep.

    m_values[k] = min over U^{delta_k} of -Delta_{tau(phi)}(v*theta_{delta_k});
    passed means every m_value is >= -epsilon.  fitted_slope is the log-log
    slope of max(-m, 1e-14) against delta, to be compared with alpha - 3/p.
    reduced_axes are the axes the sweep convolved along in reduced form
    (convolve3), empty where it took the full 3-D route.
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
    reduced_axes: tuple[int, ...]

    def to_json(self) -> str:
        payload = {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "p": self.p,
            "deltas": list(self.deltas),
            "m_values": list(self.m_values),
            "fitted_slope": self.fitted_slope,
            "pass": self.passed,
            "reduced_axes": list(self.reduced_axes),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_SLOPE_FLOOR = 1e-14
# the hypothesis check forgives -Delta_tau v down to -_HYPOTHESIS_RTOL * (1 + max|.|)
_HYPOTHESIS_RTOL = 1e-9


def mollified_sign_certificate(
    v: ScalarField3,
    phi: ScalarField3,
    alpha: float,
    p: float,
    epsilon: float,
    deltas,
) -> CertificateReport:
    """Sweep m(delta) = min over U^delta of -Delta_{tau(phi)}(v*theta_delta).

    Preconditions: p > 3, alpha in (3/p, 1), at least two distinct finite
    deltas, v and phi share one grid, and phi's declared regularity
    certifies a gradient Holder class of exponent at least alpha.  The raw
    hypothesis -Delta_{tau(phi)} v >= 0 is checked by finite differences at
    every interior node; failure raises HypothesisError.  Convex kinks
    hidden in v would carry negative distributional mass that the pointwise
    check cannot see, but the sweep itself exposes them: their defect grows
    like -1/delta and fails the m >= -epsilon assertion.

    The sweep runs in the fields' true dimension.  An axis along which v
    and phi both equal their first plane bit for bit is reduced (at most
    two; see reduced_axes in the report): the hypothesis check runs on the
    first five planes along it, where -Delta_tau v repeats the same
    interior plane, and convolve3 convolves v's first plane with the kernel
    summed over it.  Each m(delta) is then the minimum over five planes of
    that broadcast result.  Fields with no such axis take the full 3-D
    route.
    """
    alpha = float(alpha)
    p = float(p)
    epsilon = float(epsilon)
    deltas = tuple(float(d) for d in deltas)
    if not p > 3.0:
        raise ParameterError(f"p must exceed 3, got {p}")
    if not 3.0 / p < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (3/p, 1) = ({3.0 / p}, 1), got {alpha}")
    if not epsilon > 0.0:
        raise ParameterError("epsilon must be positive")
    if not all(map(math.isfinite, deltas)) or len(set(deltas)) < 2:
        raise ParameterError(f"the slope fit needs two distinct finite deltas, got {deltas}")
    if v.grid != phi.grid:
        raise ParameterError("v and phi must share one grid")
    if phi.regularity.tag == "lipschitz":
        raise ParameterError("phi must declare a gradient class: smooth, c11 or c1alpha")
    if phi.regularity.tag == "c1alpha" and phi.regularity.alpha < alpha:
        raise ParameterError(
            f"phi gradient Holder exponent {phi.regularity.alpha} below alpha = {alpha}"
        )

    h = v.grid.spacing
    if any(d < 2.0 * h for d in deltas):
        raise UnderResolvedKernelError(f"sweep contains deltas below 2h = {2.0 * h}")

    axes = _invariant_axes(v, phi)
    tau1, tau2 = tau_fields(_thin(phi, axes).gradient_fields())
    hyp_min, peak, node = _neg_delta_tau_extremes(_thin(v, axes), tau1, tau2)
    if node is None:
        raise ParameterError("no interior node has a finite -Delta_tau v")
    tol = _HYPOTHESIS_RTOL * (1.0 + peak)
    if hyp_min < -tol:
        raise HypothesisError(f"-Delta_tau v = {hyp_min:.6e} < -{tol:.1e} at node {node}")

    m_values = []
    for d in deltas:
        mol = convolve3(v, d, axes)
        m = mol.margin
        sel = tuple(
            slice(None) if ax in axes else slice(m, n - m) for ax, n in enumerate(v.grid.extents)
        )
        m_values.append(_neg_delta_tau_extremes(_thin(mol.field, axes), tau1[sel], tau2[sel])[0])
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
        reduced_axes=axes,
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


def _plateau_road() -> _PiecewisePoly:
    """Double antiderivative of the C^3 plateau P: 0 outside (a0, b0), 1 on
    [a1, b1], septic smoothstep shoulders, (a0, a1, b1, b0) = _PLATEAU."""
    a0, a1, b1, b0 = _PLATEAU
    step = Polynomial([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])
    rise = step(Polynomial([0.0, 1.0 / (a1 - a0)]))
    fall = step(Polynomial([1.0, -1.0 / (b0 - b1)]))
    profile = _PiecewisePoly(
        (0.0, a0, a1, b1, b0, 64.0),
        (Polynomial([0.0]), rise, Polynomial([1.0]), fall, Polynomial([0.0])),
    )
    return profile.double_antiderivative()


# the frozen case (scripts/calibrate_mollify_case.py): grid spans, Cantor gap
# ratios, the stretch L along xi2, v's amplitude c, the plateau (a0, a1, b1,
# b0) along u = xi1 + xi2, phi's declared alpha and p of the rate alpha - 3/p
_SPANS = (1.0, 1.0, 0.5625)
_ALPHAS = (Fraction(1, 5), Fraction(7, 10), Fraction(7, 10))
_STRETCH = Fraction(5, 4)
_SCALE = Fraction(1, 4)
_PLATEAU = (0.25, 0.50, 1.50, 1.75)
_HOLDER = 0.9
_RATE_P = 6.0


@dataclass(frozen=True)
class StaircaseCase:
    """The staircase certificate case: the fields plus construction data.

    deficit[j] = 4 - ghat(xi2_j)^2 where ghat is the 2h box average of the
    coefficient g = 1 + f(xi2/L), f the staircase of the gap ratios _ALPHAS,
    L = 5/4 and 4 = sup g^2; road_top is the u = xi1 + xi2 interval where
    the plateau equals 1 and the certificate is tight, and p the other
    exponent of the rate alpha - 3/p.  v and phi are read-only broadcast
    views along xi3.
    """

    v: ScalarField3
    phi: ScalarField3
    ghat_values: np.ndarray
    deficit: np.ndarray
    scale: float
    road_top: tuple[float, float]
    p: float

    def delta_sweep(self, count: int) -> tuple[float, ...]:
        """count half-dyadic points delta_k = 2^{-2 - k/2}; seven run from
        1/4 down to 1/32, which is 32h down to 4h at the default h = 1/128.

        The window is fixed rather than tied to h: m(delta) is not one
        power law, so a window that moved with h would fit a steeper part
        of the curve on every finer grid.  Seven full-octave steps would
        span a factor 64, more than fits between the 2h resolution floor
        and the domain size, so the sweep halves delta every second step."""
        if count < 2:
            raise ParameterError("sweep needs at least 2 points")
        return tuple(0.25 * 2.0 ** (-0.5 * k) for k in range(count))


def staircase_sweep_case(spacing: float = 1.0 / 128.0) -> StaircaseCase:
    """Staircase-built pair (v, phi) with an exact discrete certificate,
    shipped for the (alpha, p) = (0.9, 6) sweep.

    phi(xi) = -(xi2 + L F1(xi2/L)) with F1 = int_0^x f and L = _STRETCH, so
    the coefficient pair is tau1 = g/4, tau2 = 1/2 with g = 1 + f(xi2/L);
    the centered first difference of phi reproduces exactly the 2h box
    average ghat of g.  v stacks a smooth plateau road along u = xi1 + xi2
    against the discrete double sum of the deficit 4 - ghat^2 and the
    closing lift -(1 + 4) xi2^2 / 2, which makes the interior identity

        -Delta_tau v = (c/16)(1 + ghat^2)(1 - P~(xi1 + xi2)) >= 0

    hold at every node to rounding accuracy (P~ the discretized plateau, c
    = _SCALE), with equality on the slab P = 1.  Mollification then feels
    only the sliding average of the deficit, so m(delta) = -(c/16) max
    (theta_delta * deficit - deficit) is a pure response of the staircase
    cascade.

    The gap schedule _ALPHAS opens with a wide first gap, which keeps the
    whole top of the 1/4-to-1/32 sweep inside the first kept interval, and
    continues with near-constant ratios whose cascade scales sit inside the
    sweep window; the stretch aligns those scales so the fitted log-log
    decay of the sweep lands near alpha - 3/p = 0.4 for the declared
    (alpha, p) = (0.9, 6).  The plateau slab is wide enough that a kernel
    footprint of radius delta = 1/4 fits inside it along u, so the deficit
    response is the only contribution to m(delta) at every sweep point.
    """
    if not 0.0 < spacing < math.inf:
        raise ParameterError(f"spacing must be finite and positive, got {spacing!r}")
    h = Fraction(spacing)
    lam = _STRETCH
    extents = tuple(int(round(Fraction(s) / h)) + 1 for s in _SPANS)
    if any(n < 9 for n in extents):
        raise ParameterError(f"extents {extents} too small for a certificate grid")
    n1, n2, _ = extents
    fat = fat_F(build_cantor(_ALPHAS))

    def F1(x: Fraction) -> Fraction:
        # int_0^x f exactly: F = int_0^x (f - t) dt; every argument stays
        # below (1 + 1.5h) / L < 1, since the extents check caps h at 0.075
        if x <= 0:
            return Fraction(0)
        return fat.value_exact(x) + x * x / 2

    def f_box(x: Fraction, w: Fraction) -> Fraction:
        # mean of f over [x - w, x + w]: the centered difference of F1
        return (F1(x + w) - F1(x - w)) / (2 * w)

    c = _SCALE
    gstar = Fraction(2)
    x2 = [j * h for j in range(n2)]
    ghat = [1 + f_box(x / lam, h / lam) for x in x2]
    deficit = [gstar**2 - gh**2 for gh in ghat]

    # discrete double sum: the centered second difference of g2sum returns
    # deficit[j] exactly, which is what closes the node-level identity
    g2sum = [Fraction(0), Fraction(0)]
    for j in range(1, n2 - 1):
        g2sum.append(2 * g2sum[j] - g2sum[j - 1] + h**2 * deficit[j])

    road2 = _plateau_road()
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
    v_vals = np.broadcast_to(v_12[:, :, None], extents)

    phi_1d = np.array([-(float(x + lam * F1(x / lam))) for x in x2])
    phi_vals = np.broadcast_to(phi_1d[None, :, None], extents)

    grid = Grid3((0.0, 0.0, 0.0), float(h), extents)
    v = ScalarField3(grid, v_vals, Regularity("c11"))
    phi = ScalarField3(grid, phi_vals, Regularity("c1alpha", alpha=_HOLDER))
    return StaircaseCase(
        v=v,
        phi=phi,
        ghat_values=np.array([float(g) for g in ghat]),
        deficit=np.array([float(d) for d in deficit]),
        scale=float(c),
        road_top=(_PLATEAU[1], _PLATEAU[2]),
        p=_RATE_P,
    )
