"""Fat Cantor staircase construction and the Hartogs-type cap built on it.

The construction proceeds in three stages, each with an exact rational
backbone so the structural identities can be asserted without floating
point slack:

  * ``build_cantor`` produces the nested kept intervals: generation n+1
    removes from each generation-n interval its centered open gap of
    relative size ``alpha_{n+1}``.  Only the endpoint row of the deepest
    generation N is stored; ``level(n)`` slices generation n out of it.
    The system's staircase ``f_N``, its Cantor function, climbs from 0 to
    1 affinely on the kept intervals and is constant on gaps.
  * ``fat_F`` integrates ``f_N - t`` into a piecewise quadratic ``F`` with
    ``F(0) = F(1) = 0`` and ``F'' = -1`` on removed-gap interiors.
  * ``find_x0`` certifies a base point with a one-sided quadratic growth
    bound ``F(x0+s) >= F(x0) + s F'(x0) + L s^2`` for ``s >= 0``.

``hartogs_staircase`` then lifts ``F`` into a radially symmetric log cap
on the unit disc perturbed along a horizontal segment, and
``subharmonicity_scan`` classifies where the discrete Laplacian of that
cap goes positive.

All interval endpoints and breakpoints are integer numerators over one
common denominator D, the staircase values integers over 2**N and the
values of F integers over 2 D^2 2**N, so no step pays a gcd.  Fractions
are made only at the boundary: ``value_exact``/``derivative_exact``,
``sup_norm_exact``, ``interval_length`` and the certificate fields.
Float views divide the integers (``int / int`` is correctly rounded, so
each float equals that of the corresponding Fraction).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from levicheck.fields import DiscField, DomainError, ParameterError, circle_mean

__all__ = [
    "CantorSystem",
    "ConstructionError",
    "FatF",
    "HartogsDomain",
    "SubharmonicityScan",
    "X0Certificate",
    "build_cantor",
    "bump_window",
    "bump_window_second_derivative_sup",
    "default_alphas",
    "fat_F",
    "find_x0",
    "hartogs_ball_domain",
    "hartogs_staircase",
    "interval_distance",
    "subharmonicity_scan",
    "superharmonic_mean_excess",
]


# deepest Cantor generation built: generation n holds 2^n intervals, and
# build_cantor + fat_F + find_x0 (1000 offsets) + sup_norm_exact take about
# 0.010, 0.014, 0.022, 0.037 and 0.069 s at depths 10 to 14 (alpha1 = 9/10,
# best of 5, 2-core Xeon, Python 3.11.7), doubling per level from depth 12
_DEPTH_BUDGET = 14
# the staircase cap's Cantor depth and the offsets its growth point is
# certified at
_CAP_DEPTH = 10
_CAP_OFFSETS = 1000
# horizontal distance from the kept columns beyond which the staircase cap
# must be strictly superharmonic
_FAR_FIELD = 0.1


class ConstructionError(Exception):
    """A certified construction failed one of its verified inequalities."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParameterError(f"non-finite parameter {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"{x!r} is not a fraction") from None
    raise ParameterError(f"cannot interpret {x!r} as an exact rational")


def default_alphas(alpha1, depth: int) -> tuple[Fraction, ...]:
    """Geometric gap-ratio schedule alpha_k = alpha1 * 4**(1-k), k <= depth."""
    a1 = _as_fraction(alpha1)
    if not 0 < a1 < 1:
        raise ParameterError(f"alpha1 must lie in (0, 1), got {alpha1!r}")
    # the certified growth (1/(1 - alpha1) - 1) / 2 goes into reports as a float
    if 1 / (1 - a1) > sys.float_info.max:
        raise ParameterError("alpha1 lies so close to 1 that 1/(1 - alpha1) overflows a float")
    if not 1 <= depth <= _DEPTH_BUDGET:
        raise ParameterError(f"depth must lie in [1, {_DEPTH_BUDGET}], got {depth}")
    return tuple(a1 * Fraction(1, 4) ** (k - 1) for k in range(1, depth + 1))


@dataclass(frozen=True)
class CantorSystem:
    """The nested kept intervals, stored as their deepest generation, and
    their staircase f_N, N = ``depth``.

    ``xs`` holds the 2**(N+1) endpoints of the generation-N kept intervals
    in increasing order, left and right alternating, each as an integer
    numerator over the common ``denominator`` D.  A generation-n
    interval's outer ends are those of its outermost generation-N
    descendants, so ``level(n)`` slices every coarser generation out of
    this one row.

    f_N, the system's Cantor function, rises linearly from i * 2**-N to
    (i+1) * 2**-N on kept interval ``level(N)[i]`` and is constant between
    them; ``ys`` holds it at the breakpoints ``xs`` as numerators over
    2**N.  Calling the system evaluates f_N in floats.
    """

    alphas: tuple[Fraction, ...]
    denominator: int
    xs: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.alphas)

    def level(self, n: int) -> tuple[tuple[int, int], ...]:
        """The 2**n kept intervals of generation n as (left, right) pairs of
        numerators over ``denominator``."""
        s = 2 ** (self.depth - n)
        return tuple(zip(self.xs[:: 2 * s], self.xs[2 * s - 1 :: 2 * s]))

    def interval_length(self, n: int) -> Fraction:
        """Common length of every generation-n kept interval (exact)."""
        out = Fraction(1)
        for k in range(n):
            out *= (1 - self.alphas[k]) / 2
        return out

    def kept_measure(self, n: int) -> Fraction:
        """Total length of the generation-n kept union: prod_{k<=n}(1 - alpha_k)."""
        out = Fraction(1)
        for k in range(n):
            out *= 1 - self.alphas[k]
        return out

    def kept_union(self) -> list[tuple[float, float]]:
        """The generation-N kept intervals as float pairs."""
        d = self.denominator
        return [(a / d, b / d) for a, b in self.level(self.depth)]

    def _locate(self, p: int, q: int) -> int:
        """Index k of the breakpoint piece [xs[k], xs[k+1]) holding p/q, q > 0.

        An integer numerator x satisfies x / D <= p / q exactly when
        x <= floor(p D / q), so one integer bisection finds the piece.
        """
        return bisect_right(self.xs, p * self.denominator // q) - 1

    @cached_property
    def ys(self) -> tuple[int, ...]:
        return tuple((k + 1) // 2 for k in range(len(self.xs)))

    @cached_property
    def _xs_float(self) -> np.ndarray:
        d = self.denominator
        return np.array([x / d for x in self.xs])

    @cached_property
    def _ys_float(self) -> np.ndarray:
        return np.array(self.ys) / 2.0**self.depth

    @cached_property
    def excess(self) -> tuple[int, ...]:
        """f_N(x) - x at each breakpoint x, the slope of F there, as
        numerators over D 2**N."""
        d, n = self.denominator, self.depth
        return tuple(y * d - (x << n) for x, y in zip(self.xs, self.ys))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self._xs_float, self._ys_float)

    def _scaled(self, k: int, p: int, q: int) -> int:
        """f_N(p/q) times q l 2**N, for p/q on breakpoint piece k.

        l = xs[1] is the common numerator of the kept intervals' length,
        over which f_N rises by 2**-N; on the gaps (odd k) it is flat.
        """
        out = self.ys[k] * q * self.xs[1]
        if k % 2 == 0:
            out += p * self.denominator - self.xs[k] * q
        return out

    def value_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        if x <= 0:
            return Fraction(0)
        if x >= 1:
            return Fraction(1)
        p, q = x.numerator, x.denominator
        return Fraction(self._scaled(self._locate(p, q), p, q), (q * self.xs[1]) << self.depth)

    def sup_distance(self, other: "CantorSystem") -> Fraction:
        """Exact sup norm of f_N - f_M, the staircases of the two systems
        (both piecewise affine).

        The knots of both, over the common denominator q, suffice; at them
        each staircase's values are integers over its own q l 2**N.
        """
        q = math.lcm(self.denominator, other.denominator)
        knots = {x * (q // system.denominator) for system in (self, other) for x in system.xs}
        mine, theirs = ((q * system.xs[1]) << system.depth for system in (self, other))

        def at(system, p):
            return system._scaled(system._locate(p, q), p, q)

        best = max(abs(at(self, p) * theirs - at(other, p) * mine) for p in knots)
        return Fraction(best, mine * theirs)


def build_cantor(alphas: Sequence) -> CantorSystem:
    """Build the nested interval system from gap ratios ``alphas``.

    Generation 0 is the single interval [0, 1].  To pass from generation n
    to n+1, each kept interval loses its centered open middle of relative
    length ``alphas[n]``, so the depth is ``len(alphas)``.  Every ratio must
    lie in (0, 1); the kept measure is then exactly prod(1 - alpha_k) > 0.
    """
    ratios = tuple(_as_fraction(a) for a in alphas)
    if not 1 <= len(ratios) <= _DEPTH_BUDGET:
        raise ParameterError(f"depth must lie in [1, {_DEPTH_BUDGET}], got {len(ratios)}")
    for a in ratios:
        if not 0 < a < 1:
            raise ParameterError(f"gap ratios must lie in (0, 1), got {a}")

    # L_k = prod_{j<=k} (1 - alpha_j) / 2, the generation-k interval length,
    # as a numerator over the least common denominator D of all of them
    lengths = [Fraction(1)]
    for a in ratios:
        lengths.append(lengths[-1] * (1 - a) / 2)
    d = math.lcm(*(length.denominator for length in lengths))
    ell = [length.numerator * (d // length.denominator) for length in lengths]
    # a generation-(k-1) interval's right child starts L_{k-1} - L_k after
    # its left child, so every left end is a sum of these shifts; doubling
    # the row once per generation, deepest first, keeps it increasing
    xs = [0, ell[-1]]
    for k in range(len(ratios), 0, -1):
        shift = ell[k - 1] - ell[k]
        xs += [x + shift for x in xs]
    return CantorSystem(alphas=ratios, denominator=d, xs=tuple(xs))


@dataclass(frozen=True)
class FatF:
    """F(x) = integral_0^x (f_N(t) - t) dt, piecewise quadratic and exact,
    with f_N the staircase of ``system``.

    Stores only what it adds to ``system``: ``values``, F at the
    breakpoints ``xs`` of f_N as integer numerators over ``denominator``
    = 2 D^2 2**N.  The float view of the values is built on the first
    float call.  The limit staircase differs from f_N by at most 2**-N in
    sup norm, so the corresponding limit potential differs from this F by
    at most ``truncation_error`` = 2**(1-N).
    """

    system: CantorSystem
    values: tuple[int, ...]

    @property
    def xs(self) -> tuple[int, ...]:
        return self.system.xs

    @property
    def truncation_error(self) -> float:
        return 2.0 ** (1 - self.system.depth)

    @property
    def denominator(self) -> int:
        """2 D^2 2**N: each trapezoid sum multiplies an excess over D 2**N
        by a step over D and halves the product."""
        d = self.system.denominator
        return (2 * d * d) << self.system.depth

    @cached_property
    def _vals_float(self) -> np.ndarray:
        den = self.denominator
        return np.array([v / den for v in self.values])

    def _piece(self, k: int, p: int, q: int) -> int:
        """F(p/q) times ``denominator`` q^2 l, for p/q on breakpoint piece k.

        With u = p/q - xs[k], F(p/q) = F(xs[k]) + g_k u + (f_N' - 1) u^2 / 2,
        where g_k is the excess at xs[k] and f_N' = D / (2**N l) on a kept
        interval (even k), 0 on a gap; l = xs[1] as in ``_scaled``.
        """
        d, ell = self.system.denominator, self.xs[1]
        u = p * d - self.xs[k] * q  # u over D q
        g = self.system.excess[k]
        out = ell * (self.values[k] * q * q + (2 * g * q - (u << self.system.depth)) * u)
        if k % 2 == 0:
            out += d * u * u
        return out

    def value_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        if x <= 0 or x >= 1:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        k = self.system._locate(p, q)
        return Fraction(self._piece(k, p, q), self.denominator * q * q * self.xs[1])

    def derivative_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        if x <= 0 or x >= 1:
            return Fraction(0)
        return self.system.value_exact(x) - x

    def __call__(self, x):
        f = self.system
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(f._xs_float, x, side="right") - 1, 0, len(f.xs) - 2)
        xk = f._xs_float[idx]
        fk = f._ys_float[idx]
        vals = self._vals_float[idx] + 0.5 * ((fk - xk) + (f(x) - x)) * (x - xk)
        return np.where((x <= 0.0) | (x >= 1.0), 0.0, vals)

    def sup_norm_exact(self) -> Fraction:
        """Exact sup of |F| over [0, 1] via breakpoints and interior vertices.

        The integrand g = f_N - t is affine on each piece [x0, x1], so the
        quadratic F has a vertex strictly inside it exactly when g changes
        sign strictly between its end values g0 and g1; the vertex is the
        zero t = (x0 g1 - x1 g0) / (g1 - g0).  The breakpoint values share
        one denominator; a vertex's value is compared by cross-multiplying.
        """
        xs, g = self.xs, self.system.excess
        d, ell = self.system.denominator, xs[1]
        best, best_den = max(abs(v) for v in self.values), self.denominator
        for k in range(len(xs) - 1):
            g0, g1 = g[k], g[k + 1]
            if g0 < 0 < g1 or g1 < 0 < g0:
                q = d * (g1 - g0)
                value = abs(self._piece(k, xs[k] * g1 - xs[k + 1] * g0, q))
                den = self.denominator * q * q * ell
                if value * best_den > best * den:
                    best, best_den = value, den
        return Fraction(best, best_den)


def fat_F(system: CantorSystem) -> FatF:
    """Exact piecewise quadratic antiderivative of f_N - t, N = system.depth."""
    g, xs = system.excess, system.xs
    # trapezoid sums over 2 D^2 2**N (see FatF.denominator), accumulated
    steps = ((g[k] + g[k + 1]) * (xs[k + 1] - xs[k]) for k in range(len(xs) - 1))
    return FatF(system=system, values=tuple(accumulate(steps, initial=0)))


@dataclass(frozen=True)
class X0Certificate:
    """Certified base point for the one-sided quadratic growth of F.

    ``x0`` minimizes g = f_N - slope1 * x over the first generation-1 kept
    interval, where slope1 = 1 / (1 - alpha_1) is the slope of f_1 there.
    Minimality of the supporting line gives, after integration,

        F(x0 + s) - F(x0) - s F'(x0) >= L s^2      for 0 <= s <= delta0

    with L = (slope1 - 1) / 2, and the certificate verifies this exactly
    at ``offsets_checked`` rational offsets.  The bound is genuinely
    one-sided: x0 is the right end of the removed gap ``left_gap``, f_N is
    constant on it, and there the deviation equals -s^2/2 exactly.
    ``left_defect`` records the verified infimum of deviation / s^2 over
    sampled s < 0.
    """

    x0: Fraction
    growth: Fraction
    delta0: Fraction
    g_min: Fraction
    offsets_checked: int
    left_gap: tuple[Fraction, Fraction]
    left_defect: Fraction


def find_x0(fat: FatF, n_offsets: int) -> X0Certificate:
    """Locate and exactly certify the quadratic growth base point of F.

    Scans the breakpoints of f_N inside the first generation-1 kept
    interval for the leftmost minimizer of g = f_N - slope1 * x (g is
    piecewise affine, so breakpoints suffice), then verifies
    deviation(s) = F(x0+s) - F(x0) - s F'(x0) >= growth * s^2 at
    ``n_offsets`` equally spaced rational offsets s in (0, delta0].  A
    failed comparison raises ConstructionError, as does depth 1, where g
    is flat and its leftmost minimizer is the interval's left end.  The
    gap left of x0 is sampled too and its exact deviation ratio reported
    as ``left_defect`` (-1/2).
    """
    if n_offsets < 1:
        raise ParameterError(f"n_offsets must be >= 1, got {n_offsets}")
    system = fat.system
    xs, d, n = system.xs, system.denominator, system.depth
    a1, b1 = system.level(1)[0]
    slope1 = 1 / (1 - system.alphas[0])
    growth = (slope1 - 1) / 2

    # g at breakpoint k as a numerator over slope1's denominator times D 2**N;
    # the first generation-1 interval holds the first half of the row
    c, e = slope1.numerator, slope1.denominator
    g = [system.ys[k] * e * d - ((c * xs[k]) << n) for k in range(len(xs) // 2)]
    best_k = min(range(len(g)), key=g.__getitem__)
    x0 = Fraction(xs[best_k], d)

    delta0 = min(Fraction(1, 20), Fraction(min(xs[best_k] - a1, b1 - xs[best_k]), 2 * d))
    if delta0 <= 0:
        raise ConstructionError("base point sits on the interval boundary")

    # the offsets s_j = delta0 j / n_offsets put every x0 + s_j over one
    # q = D B n_offsets, delta0 = A / B, so that F there, F(x0) and
    # s_j F'(x0) are integers over fat.denominator q^2 l (l = xs[1]), and
    # growth s_j^2 is too once multiplied by the growth's denominator
    step, scale = delta0.numerator * d, delta0.denominator * n_offsets
    q = d * scale
    f0 = fat.values[best_k] * q * q * xs[1]
    df0 = 2 * d * q * xs[1] * system.excess[best_k]
    bound = fat.denominator * xs[1] * growth.numerator
    for j in range(1, n_offsets + 1):
        s = step * j  # s_j = s / q
        p = xs[best_k] * scale + s
        dev = fat._piece(system._locate(p, q), p, q) - f0 - s * df0
        if dev * growth.denominator < bound * s * s:
            s, dev = Fraction(s, q), Fraction(dev, fat.denominator * q * q * xs[1])
            raise ConstructionError(
                f"quadratic growth fails at offset {float(s)!r}: "
                f"deviation {float(dev)!r} < {float(growth * s * s)!r}"
            )

    # at depth >= 2, f_N's slope 1 / prod(1 - alpha_k) exceeds slope1, so g
    # rises strictly on every kept interval and falls on every gap: x0 opens
    # a kept interval (even best_k), not the first (delta0 > 0), and the
    # stretch left of it, between two generation-N kept intervals, is a
    # removed gap
    left_gap = (Fraction(xs[best_k - 1], d), x0)

    f_x0 = fat.value_exact(x0)
    df_x0 = fat.derivative_exact(x0)
    reach = min(delta0, (x0 - left_gap[0]) / 2)
    ratios = []
    for k in range(1, 8):
        s = -reach * k / 8
        dev = fat.value_exact(x0 + s) - f_x0 - s * df_x0
        ratios.append(dev / (s * s))

    return X0Certificate(
        x0=x0,
        growth=growth,
        delta0=delta0,
        g_min=Fraction(g[best_k], (e * d) << n),
        offsets_checked=n_offsets,
        left_gap=left_gap,
        left_defect=min(ratios),
    )


def bump_window(t):
    """Even C-infinity window: 1 on |t| <= 1, 0 on |t| >= 2, monotone between."""
    arr = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.zeros_like(arr)
    out[arr <= 1.0] = 1.0
    mid = (arr > 1.0) & (arr < 2.0)
    if np.any(mid):
        u = 2.0 - arr[mid]
        with np.errstate(divide="ignore", over="ignore"):
            su = np.exp(-1.0 / u)
            sv = np.exp(-1.0 / (1.0 - u))
        out[mid] = su / (su + sv)
    return out if np.ndim(t) else float(out[0])


def bump_window_second_derivative_sup() -> float:
    """sup |d^2/dt^2 bump_window| over the transition band 1 < |t| < 2.

    The value is the max of |w(t-h) - 2 w(t) + w(t+h)| / h^2 over the
    nodes t = 1 + h, 1 + 2h, ... below 2 - h at step h = 1e-5, taken once
    and frozen so that no code path samples it; tests recompute it.
    """
    return 9.841044645853001


@dataclass(frozen=True)
class HartogsDomain:
    """Radially symmetric log cap on the unit disc, optionally perturbed.

    ``cap`` holds phi on a regular grid over the disc (NaN outside);
    ``kind`` is "ball" for the unperturbed cap, "staircase" for the cap
    plus c1 * F(x - 1/2) * window(4 y), or "cantor" for the cap minus a
    Green potential (potential.zygmund_domain).  The staircase alone sets
    the other two: ``params`` holds z0_real, c1 and growth, the constants
    SubharmonicityScan._threshold_report reads, and ``columns`` the
    perturbation's support columns, F's kept intervals shifted by +1/2.
    """

    cap: DiscField
    kind: str
    params: dict = field(default_factory=dict)
    columns: list[tuple[float, float]] = field(default_factory=list)

    @property
    def spacing(self) -> float:
        return self.cap.spacing


def _ball_cap_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r2 = x * x + y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = 0.5 * np.log1p(-r2)
    vals[r2 >= 1.0] = np.nan
    return vals


def hartogs_ball_domain(spacing: float = 1.0 / 512.0) -> HartogsDomain:
    """Unperturbed cap phi = (1/2) log(1 - |z|^2)."""
    return HartogsDomain(cap=DiscField.from_function(spacing, _ball_cap_values), kind="ball")


def hartogs_staircase(alpha1, spacing: float = 1.0 / 512.0) -> HartogsDomain:
    """Cap phi = (1/2) log(1-|z|^2) + c1 F(x - 1/2) window(4 y).

    F is built on the geometric gap-ratio schedule alpha1 * 4**(1-k) to
    depth _CAP_DEPTH, and find_x0 certifies its growth point at _CAP_OFFSETS
    offsets; the certified growth constant is alpha1 / (2 (1 - alpha1)).

    The amplitude c1 = 1 / (8 * sup|F| * sup|window''|) caps the y-window
    contribution 16 c1 F(x - 1/2) window''(4 y) at 2 in absolute value.
    That term lives on the ring |y| in [1/4, 1/2] with x > 1/2, where the
    unperturbed cap has Laplacian at most -2 / (1 - 5/16)^2 < -4.2, so the
    cap stays strictly superharmonic wherever the staircase term is flat;
    Laplacian sign changes can only happen over the kept columns.
    """
    system = build_cantor(default_alphas(alpha1, _CAP_DEPTH))
    fat = fat_F(system)
    cert = find_x0(fat, n_offsets=_CAP_OFFSETS)

    f_sup = float(fat.sup_norm_exact())
    w2_sup = bump_window_second_derivative_sup()
    c1 = 1.0 / (8.0 * f_sup * w2_sup)

    def phi(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        base = _ball_cap_values(x, y)
        return base + c1 * fat(x - 0.5) * bump_window(4.0 * y)

    params = {"z0_real": float(cert.x0 + Fraction(1, 2)), "c1": c1, "growth": float(cert.growth)}
    return HartogsDomain(
        cap=DiscField.from_function(spacing, phi),
        kind="staircase",
        params=params,
        columns=[(a + 0.5, b + 0.5) for a, b in system.kept_union()],
    )


def interval_distance(points: np.ndarray, intervals: Sequence[tuple[float, float]]) -> np.ndarray:
    """Distance from each point to the union of closed intervals."""
    if not intervals:
        raise ParameterError("interval union is empty")
    ivs = sorted(intervals)
    lefts = np.array([a for a, _ in ivs])
    rights = np.array([b for _, b in ivs])
    pts = np.asarray(points, dtype=float)
    k = np.searchsorted(lefts, pts, side="right") - 1
    dist = np.full(pts.shape, np.inf)
    has_left = k >= 0
    inside = has_left & (pts <= rights[np.clip(k, 0, None)])
    dist[inside] = 0.0
    use_left = has_left & ~inside
    dist[use_left] = pts[use_left] - rights[k[use_left]]
    has_right = k + 1 < len(lefts)
    cand = np.where(has_right, lefts[np.clip(k + 1, None, len(lefts) - 1)] - pts, np.inf)
    return np.minimum(dist, np.where(cand > 0, cand, np.inf))


@dataclass
class SubharmonicityScan:
    """Discrete Laplacian classification of a Hartogs cap.

    ``laplacian`` is the 5-point Laplacian field, NaN off the scanned
    nodes (where it is undefined or outside the scan radius); the scanned
    nodes are its finite ones and the violating nodes its positive ones.
    ``dist_x`` holds, per grid column x, the horizontal distance to the
    perturbed segment {y = 0, x - 1/2 in kept union}, all NaN when the cap
    has no segment (the ball and the Cantor cap).  Horizontal distance
    ignores y because the window keeps the perturbation fully active on a
    band of fixed height, so violations can sit far from y = 0 in the
    Euclidean metric while still lying over the kept columns.
    """

    domain: HartogsDomain
    scan_radius: float
    laplacian: np.ndarray
    dist_x: np.ndarray
    mean_checks: dict | None = None

    @property
    def scanned(self) -> np.ndarray:
        return np.isfinite(self.laplacian)

    @property
    def violating(self) -> np.ndarray:
        return self.laplacian > 0.0

    def violating_count(self) -> int:
        return int(np.count_nonzero(self.violating))

    def scanned_count(self) -> int:
        return int(np.count_nonzero(self.scanned))

    def violators(self) -> tuple[np.ndarray, ...]:
        """(x, y, laplacian, horizontal distance, Euclidean distance) at the
        violating nodes, in C order."""
        i, j = np.nonzero(self.violating)
        xs = self.domain.cap.axis()
        dh = self.dist_x[i]
        return xs[i], xs[j], self.laplacian[i, j], dh, np.hypot(dh, xs[j])

    def max_laplacian(self) -> float:
        vals = self.laplacian[self.scanned]
        return float(np.max(vals)) if vals.size else float("nan")

    def far_field_max(self) -> float:
        """Max Laplacian over scanned nodes at horizontal distance > _FAR_FIELD."""
        vals = self.laplacian[self.scanned & (self.dist_x[:, None] > _FAR_FIELD)]
        return float(np.max(vals)) if vals.size else float("nan")

    @property
    def reach_2h(self) -> float:
        """The horizontal distance 2h the violations must lie within, plus float slack."""
        return 2.0 * self.domain.spacing + 1e-12

    def _threshold_report(self) -> dict:
        """Smooth-part mean-comparison constant and the growth it demands.

        Circle means of the unperturbed cap at radius r fall below the
        center value by about c3 r^2 with c3 a quarter of the Laplacian
        modulus near z0.  The staircase term raises them by at least
        c1 (L/4 - 1/8) r^2 (quadratic growth to the right, exact -s^2/2
        defect on the constant left piece), so the mean-value inequality
        can only break when L exceeds 4 c3 / c1 + 1/2.  Reported, not
        asserted; the scan's violation count is the ground truth.
        """
        p = self.domain.params
        c3 = 0.25 * _ball_laplacian_modulus_sup(abs(p["z0_real"]), 0.02)
        c1 = p["c1"]
        threshold = 4.0 * c3 / c1 + 0.5
        growth = p["growth"]
        return {
            "empirical_c3": c3,
            "implied_growth_threshold": threshold,
            "growth": growth,
            "growth_below_threshold": bool(growth < threshold),
        }


def _ball_laplacian_modulus_sup(center_radius: float, radius: float) -> float:
    """Sup of |Laplacian of (1/2) log(1 - |z|^2)| = 2/(1 - |z|^2)^2 nearby.

    The modulus is radial and increasing, so the sup over a disc of the
    given radius around a point sits at the largest radius reached.
    """
    r = min(center_radius + radius, 0.999)
    return 2.0 / (1.0 - r * r) ** 2


def subharmonicity_scan(
    domain: HartogsDomain, scan_radius: float = 0.96
) -> SubharmonicityScan:
    """Classify the sign of the 5-point Laplacian over |z| <= scan_radius."""
    cap = domain.cap
    if not 0 < scan_radius < 1.0:
        raise ParameterError(f"scan radius must lie in (0, 1.0), got {scan_radius!r}")
    lap = cap.laplacian_field()
    lap[~np.isfinite(lap) | (np.hypot(*cap.meshes()) > scan_radius)] = np.nan
    scan = SubharmonicityScan(domain, scan_radius, lap, np.full(lap.shape[0], np.nan))
    if domain.kind == "staircase":
        scan.dist_x = interval_distance(cap.axis(), domain.columns)
        scan.mean_checks = _segment_mean_checks(scan)
    return scan


def _segment_mean_checks(scan: SubharmonicityScan) -> dict:
    """Circle-mean excess at the nodes straddling the perturbed segment.

    The tested nodes sit within 2h horizontally of the kept columns and
    within 2.5h of y = 0, where the staircase kinks live; a positive
    excess at small radius witnesses mean-value failure independently of
    the finite-difference Laplacian.  The radius tracks 4h but is clipped
    to [0.004, 0.0085]: above roughly 0.015 the smooth part's negative
    drift (about c3 r^2) overtakes the kink excess even for steep caps,
    so larger circles would test the wrong regime.
    """
    cap = scan.domain.cap
    h = cap.spacing
    radius = min(max(4.0 * h, 0.004), 0.0085)
    xs = cap.axis()
    near = (scan.dist_x[:, None] <= 2.0 * h) & (np.abs(xs) <= 2.5 * h)
    i, j = np.nonzero(scan.scanned & near)
    centre = cap.sample(xs[i], xs[j])
    if np.isnan(centre).any():
        raise DomainError("a segment node lies outside the finite sample set")
    excess = circle_mean(cap, xs[i] + 1j * xs[j], radius) - centre
    return {
        "radius": radius,
        "nodes": int(excess.size),
        "positive": int(np.count_nonzero(excess > 0.0)),
        "max_excess": float(np.max(excess)) if excess.size else math.nan,
    }


def superharmonic_mean_excess(
    domain: HartogsDomain, center: complex, radii: Iterable[float]
) -> dict:
    """Circle-mean minus center value of the cap at the given radii.

    A superharmonic function has non-positive excess for every radius; a
    positive value witnesses failure of the mean-value inequality at that
    scale.  Values are keyed by the radius repr.
    """
    out = {}
    for r in radii:
        mean = circle_mean(domain.cap, center, float(r))
        out[repr(float(r))] = float(mean - domain.cap.value(center))
    return out
