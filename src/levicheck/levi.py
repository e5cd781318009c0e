"""Levi condition in C^2, graph-form rewrite, and the degenerate operator.

Conventions: z1 = x1 + i*y1, z2 = x2 + i*x3.  Graph defining functions are
rho = x1 - phi(y1, z2) with phi sampled as a ScalarField3 over
xi = (y1, Re z2, Im z2).  For real rho the ambient Levi condition reads

    rho_{z1 z1b} |rho_{z2}|^2 + rho_{z2 z2b} |rho_{z1}|^2
        - 2 Re(rho_{z1 z2b} rho_{z1b} rho_{z2})  >=  0,

and on the graph it reduces to -Delta_tau phi with tau = tau(phi).
Both routes are computed and cross-checked wherever possible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from levicheck.fields import (
    DiscField,
    DomainError,
    Grid3,
    ScalarField3,
    StencilError,
    circle_mean,
    stable_sum,
    wirtinger_parts,
)

__all__ = [
    "DegeneratePointError",
    "ConsistencyError",
    "TangentPair",
    "LeviSample",
    "WirtingerData",
    "Defining2",
    "levi_condition_2d",
    "tau_of_phi",
    "tau_fields",
    "delta_tau",
    "delta_tau_fields",
    "graph_levi",
    "graph_levi_fields",
    "levi_scan",
    "LeviScan",
    "slice_graph",
    "slice_ratio_min",
    "green_identity_report",
    "GreenIdentityReport",
    "fit_positive_scale",
]

_DUAL_TOL = 1e-9
# nondegeneracy floor on |grad rho| in levi_condition_2d
_MIN_GRADIENT = 1e-8
# interior nodes per block of graph_levi_fields and of the certificate's
# per-delta minimum, rounded down to whole xi1-planes (at least one): the
# block's eight stencil rows and its complex work arrays stay a few MiB
_BLOCK = 1 << 15
# the Hessian entries the Levi quantity and Delta_tau read
_LEVI_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))
# the interior nodes of a slab from _plane_blocks
_INNER = (Ellipsis, slice(1, -1), slice(1, -1))


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
class TangentPair:
    """Coefficient pair of the degenerate operator Delta_tau."""

    tau1: complex
    tau2: complex

    def __post_init__(self) -> None:
        for c in (complex(self.tau1), complex(self.tau2)):
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("tau components must be finite")

    def t_matrix(self) -> np.ndarray:
        """Real symmetric coefficient table T_jk of the xi-coordinate form."""
        cross = np.conjugate(self.tau1) * self.tau2
        t = np.zeros((3, 3))
        t[0, 0] = float(_abs2(self.tau1))
        t[1, 1] = t[2, 2] = 0.25 * float(_abs2(self.tau2))
        t[0, 1] = t[1, 0] = cross.imag
        t[0, 2] = t[2, 0] = -cross.real
        return t


@dataclass(frozen=True)
class LeviSample:
    node: tuple[int, int, int]
    location: tuple[float, float, float]
    levi_value: float
    delta_tau_value: float
    classification: str

    def __post_init__(self) -> None:
        if self.classification not in ("pseudoconvex_ok", "violating", "near_zero"):
            raise ValueError(f"bad classification {self.classification!r}")


def classify_value(levi_value: float, tol: float) -> str:
    if abs(levi_value) <= tol:
        return "near_zero"
    return "pseudoconvex_ok" if levi_value > 0.0 else "violating"


@dataclass(frozen=True)
class WirtingerData:
    """Pointwise first/second Wirtinger derivatives of a real function of (z1, z2)."""

    rho: float
    rz1: complex
    rz2: complex
    rz1z1b: float
    rz2z2b: float
    rz1z2b: complex


class Defining2:
    """Defining function of a domain in C^2 with per-point Wirtinger data,
    backed by exact symbolic derivative callables."""

    def __init__(self, data_fn: Callable[[complex, complex], WirtingerData]):
        self._data_fn = data_fn

    def data(self, z1: complex, z2: complex) -> WirtingerData:
        return self._data_fn(complex(z1), complex(z2))

    # -- built-in symbolic domains ----------------------------------------

    @classmethod
    def ball(cls) -> "Defining2":
        def data(z1: complex, z2: complex) -> WirtingerData:
            return WirtingerData(
                rho=float(_abs2(z1) + _abs2(z2)) - 1.0,
                rz1=np.conjugate(z1),
                rz2=np.conjugate(z2),
                rz1z1b=1.0,
                rz2z2b=1.0,
                rz1z2b=0.0,
            )

        return cls(data)

    @classmethod
    def hyperplane(cls) -> "Defining2":
        def data(z1: complex, z2: complex) -> WirtingerData:
            return WirtingerData(rho=z1.real, rz1=0.5, rz2=0.0, rz1z1b=0.0, rz2z2b=0.0, rz1z2b=0.0)

        return cls(data)

    @classmethod
    def g2_model(cls) -> "Defining2":
        # Re z1 - |z2|^2: the model hypersurface with a strictly concave side
        def data(z1: complex, z2: complex) -> WirtingerData:
            return WirtingerData(
                rho=z1.real - float(_abs2(z2)),
                rz1=0.5,
                rz2=-np.conjugate(z2),
                rz1z1b=0.0,
                rz2z2b=-1.0,
                rz1z2b=0.0,
            )

        return cls(data)

    @classmethod
    def hartogs_lifted(
        cls,
        phi_value: Callable[[complex], float],
        phi_dz: Callable[[complex], complex],
        phi_lap: Callable[[complex], float],
    ) -> "Defining2":
        """rho(z1, z2) = log|z1| - phi(z2): the lift of a radius-1 Hartogs cap.

        phi_dz is d(phi)/dz and phi_lap is d^2(phi)/dz dzbar at z = z2.
        Degenerate at z1 = 0.
        """

        def data(z1: complex, z2: complex) -> WirtingerData:
            if z1 == 0:
                raise DegeneratePointError("log|z1| lift undefined at z1 = 0")
            return WirtingerData(
                rho=math.log(abs(z1)) - phi_value(z2),
                rz1=1.0 / (2.0 * z1),
                rz2=-complex(phi_dz(z2)),
                rz1z1b=0.0,
                rz2z2b=-float(phi_lap(z2)),
                rz1z2b=0.0,
            )

        return cls(data)

    @classmethod
    def hartogs_ball(cls) -> "Defining2":
        """The unit ball written as the Hartogs lift of phi = (1/2) log(1 - |z|^2)."""

        def check(z: complex) -> complex:
            if abs(z) >= 1.0:
                raise DomainError(f"|z2| = {abs(z)} outside the Hartogs base disc")
            return z

        def value(z: complex) -> float:
            return 0.5 * math.log(1.0 - abs(check(z)) ** 2)

        def dz(z: complex) -> complex:
            return -z.conjugate() / (2.0 * (1.0 - abs(check(z)) ** 2))

        def lap(z: complex) -> float:
            return -0.5 / (1.0 - abs(check(z)) ** 2) ** 2

        return cls.hartogs_lifted(value, dz, lap)

    @classmethod
    def from_graph_partials(
        cls,
        value: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        hess: Callable[[np.ndarray], np.ndarray],
    ) -> "Defining2":
        """rho = x1 - phi with phi given by real partials over xi = (y1, Re z2, Im z2)."""

        def data(z1: complex, z2: complex) -> WirtingerData:
            xi = np.array([z1.imag, z2.real, z2.imag])
            g = np.asarray(grad(xi), dtype=float)
            h = np.asarray(hess(xi), dtype=float)
            return WirtingerData(
                rho=z1.real - float(value(xi)),
                rz1=0.5 * (1.0 + 1j * g[0]),
                rz2=-0.5 * (g[1] - 1j * g[2]),
                rz1z1b=-0.25 * h[0, 0],
                rz2z2b=-0.25 * (h[1, 1] + h[2, 2]),
                rz1z2b=0.25j * (h[0, 1] + 1j * h[0, 2]),
            )

        return cls(data)


def levi_condition_2d(rho: Defining2, point) -> float:
    """LHS of the ambient Levi condition at point = (z1, z2); >= 0 iff the
    condition holds there."""
    z1, z2 = complex(point[0]), complex(point[1])
    d = rho.data(z1, z2)
    grad_norm = 2.0 * math.sqrt(float(_abs2(d.rz1) + _abs2(d.rz2)))
    if grad_norm < _MIN_GRADIENT:
        raise DegeneratePointError(f"|grad rho| = {grad_norm:.3e} at {point}")
    value = (
        d.rz1z1b * float(_abs2(d.rz2))
        + d.rz2z2b * float(_abs2(d.rz1))
        - 2.0 * (d.rz1z2b * np.conjugate(d.rz1) * d.rz2).real
    )
    return float(value)


def tau_of_phi(phi: ScalarField3, node) -> TangentPair:
    """tau(phi) = (-1/2 dphi/dz2, 1/2 (1 + i dphi/dy1)) at a node."""
    g = phi.fd_gradient(node)
    dz2 = 0.5 * (g[1] - 1j * g[2])
    return TangentPair(-0.5 * dz2, 0.5 * (1.0 + 1j * g[0]))


def tau_fields(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex tau(phi) component arrays over the whole grid (NaN ring), from
    g = phi.gradient_fields()."""
    dz2 = 0.5 * (g[1] - 1j * g[2])
    return -0.5 * dz2, 0.5 * (1.0 + 1j * g[0])


class _DualCheck:
    """Agreement of two routes, accumulated block by block.

    add(a, b) merges max|a| and max|a - b| over the entries where both are
    finite; verify(where) then tests the merged worst against the global
    scale 1 + max|a|.  Max is exact, so the verdict does not depend on the
    blocking.  Testing each block against its own, smaller scale would be
    stricter and could raise where the whole array passes.
    """

    def __init__(self) -> None:
        self.peak = 0.0
        self.worst = 0.0

    def add(self, a, b) -> None:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        peak = np.max(np.abs(a))
        worst = np.max(np.abs(a - b))
        if not (math.isfinite(peak) and math.isfinite(worst)):
            finite = np.isfinite(a) & np.isfinite(b)
            if not finite.any():
                return
            peak = np.max(np.abs(a[finite]))
            worst = np.max(np.abs(a[finite] - b[finite]))
        self.peak = max(self.peak, float(peak))
        self.worst = max(self.worst, float(worst))

    def verify(self, where: str) -> None:
        scale = 1.0 + self.peak
        if self.worst > _DUAL_TOL * scale:
            raise ConsistencyError(
                f"{where}: complex and T-form differ by {self.worst:.3e} (scale {scale:.3e})",
                where=where,
                worst=self.worst,
                scale=scale,
            )


def _dual_check(complex_form, t_form, where: str) -> None:
    check = _DualCheck()
    check.add(complex_form, t_form)
    check.verify(where)


def delta_tau(v: ScalarField3, tau, node) -> float:
    """Delta_tau v at a node, computed via both the complex form and the
    real T_jk form; the two must agree to 1e-9 (relative)."""
    if isinstance(tau, TangentPair):
        pair = tau
    elif callable(tau):
        pair = tau(node)
    else:
        pair = TangentPair(complex(tau[0]), complex(tau[1]))
    hess = v.fd_hessian(node)
    mix = 0.5 * (hess[0, 1] + 1j * hess[0, 2])
    lap = 0.25 * (hess[1, 1] + hess[2, 2])
    complex_form = (
        float(_abs2(pair.tau1)) * hess[0, 0]
        + 2.0 * (1j * pair.tau1 * np.conjugate(pair.tau2) * mix).real
        + float(_abs2(pair.tau2)) * lap
    )
    t = pair.t_matrix()
    t_form = (
        t[0, 0] * hess[0, 0]
        + t[1, 1] * hess[1, 1]
        + t[2, 2] * hess[2, 2]
        + t[0, 1] * hess[0, 1]
        + t[0, 2] * hess[0, 2]
    )
    _dual_check(complex_form, t_form, "delta_tau")
    return float(complex_form)


def _delta_tau_forms(hess, tau1, tau2):
    """Delta_tau v in its complex form and its real T-form, elementwise.

    hess[a, b] are the xi-Hessian entries of v (only (0, 0), (1, 1), (2, 2),
    (0, 1) and (0, 2) are read; a (3, 3, ...) array or a mapping keyed by
    those pairs); tau1 and tau2 broadcast against them.
    """
    mix = 0.5 * (hess[0, 1] + 1j * hess[0, 2])
    lap = 0.25 * (hess[1, 1] + hess[2, 2])
    cross = np.conjugate(tau1) * tau2
    complex_form = (
        _abs2(tau1) * hess[0, 0]
        + 2.0 * np.real(1j * tau1 * np.conjugate(tau2) * mix)
        + _abs2(tau2) * lap
    )
    t_form = (
        _abs2(tau1) * hess[0, 0]
        + 0.25 * _abs2(tau2) * (hess[1, 1] + hess[2, 2])
        + np.imag(cross) * hess[0, 1]
        - np.real(cross) * hess[0, 2]
    )
    return complex_form, t_form


def delta_tau_fields(hess: np.ndarray, tau1: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """Vectorized Delta_tau v over the grid with the same dual-form check.

    hess = v.hessian_fields(); tau1, tau2 broadcast against the grid shape;
    returns NaN on the ring.  The whole array is one block: the complex form
    must agree with the T-form to 1e-9 * (1 + max|complex form|) over the
    finite entries, else ConsistencyError.
    """
    complex_form, t_form = _delta_tau_forms(hess, tau1, tau2)
    _dual_check(complex_form, t_form, "delta_tau_fields")
    return complex_form


def _plane_blocks(field: ScalarField3, gradient: bool):
    """Yield (planes, g, hess) over slabs of interior xi1-planes of field.

    Each slab holds about _BLOCK nodes and at least one plane; planes is its
    xi1 slice, g its (3, planes, n1, n2) gradient (None unless gradient is
    set) and hess maps each of _LEVI_ENTRIES to a (planes, n1, n2) array.
    Only [..., 1:-1, 1:-1] are interior values; the ring entries of a slab
    are finite but meaningless.  All slabs share one work buffer, so each
    slab's arrays are valid until the next one is yielded.
    """
    n0, n1, n2 = field.grid.extents
    plane = n1 * n2
    step = max(1, _BLOCK // plane)
    rows = 3 * gradient + len(_LEVI_ENTRIES)
    # zeros: the entries the stencil leaves unwritten in the first slab stay
    # finite, and in the last one they keep finite values of the slab before
    work = np.zeros((rows, min(step, n0 - 2) * plane))
    for first in range(1, n0 - 1, step):
        stop = min(first + step, n0 - 1)
        slab = work[:, : (stop - first) * plane]
        grad = slab[:3] if gradient else None
        field.stencil_planes(first, stop, grad, dict(zip(_LEVI_ENTRIES, slab[3 * gradient :])))
        cube = slab.reshape(rows, stop - first, n1, n2)
        g = cube[:3] if gradient else None
        yield slice(first, stop), g, dict(zip(_LEVI_ENTRIES, cube[3 * gradient :]))


def _neg_delta_tau_slabs(v: ScalarField3, tau1: np.ndarray, tau2: np.ndarray):
    """Yield (planes, raw) with raw = -Delta_tau v over the interior nodes of
    each slab of whole xi1-planes of v (_plane_blocks), i.e.
    -delta_tau_fields(v.hessian_fields(), tau1, tau2)[planes, 1:-1, 1:-1] for
    tau1 and tau2 of v's grid shape, bit for bit.

    Delta_tau's dual-form check runs after the last slab and tests the
    largest disagreement over all slabs against the global scale, so it
    raises only where the whole-grid check would, and only once the caller
    has consumed every slab.
    """
    check = _DualCheck()
    for planes, _, hess in _plane_blocks(v, gradient=False):
        complex_form, t_form = _delta_tau_forms(hess, tau1[planes], tau2[planes])
        check.add(complex_form[_INNER], t_form[_INNER])
        yield planes, -complex_form[_INNER]
    check.verify("delta_tau_fields")


def _min_neg_delta_tau(v: ScalarField3, tau1: np.ndarray, tau2: np.ndarray) -> float:
    """nanmin(-delta_tau_fields(v.hessian_fields(), tau1, tau2)) with its
    dual-form check, taken slab by slab (_neg_delta_tau_slabs); each slab's
    minimum is exact, so the value does not depend on the blocking."""
    low = np.nan
    for _, raw in _neg_delta_tau_slabs(v, tau1, tau2):
        low = np.fmin(low, np.fmin.reduce(raw, axis=None))
    return float(low)


def graph_levi(phi: ScalarField3, node) -> float:
    """Graph-form Levi quantity at a node; equals -Delta_{tau(phi)} phi."""
    g = phi.fd_gradient(node)
    dz2, lap, mix = phi.complex_wirtinger(node)
    hess00 = phi.fd_hessian(node)[0, 0]
    phi_y1 = g[0]
    direct = (
        -0.25 * hess00 * float(_abs2(dz2))
        + 0.5 * (1j * (1.0 - 1j * phi_y1) * dz2 * mix).real
        - 0.25 * (1.0 + phi_y1**2) * lap
    )
    via_operator = -delta_tau(phi, tau_of_phi(phi, node), node)
    if abs(direct - via_operator) > _DUAL_TOL * (1.0 + abs(direct)):
        raise ConsistencyError(
            f"graph_levi: direct {direct!r} vs operator route {via_operator!r} at {node}",
            where="graph_levi",
            worst=abs(direct - via_operator),
            scale=1.0 + abs(direct),
        )
    return float(direct)


def graph_levi_fields(phi: ScalarField3) -> np.ndarray:
    """Vectorized graph-form Levi quantity (NaN ring), cross-checked against
    the -Delta_{tau(phi)} route.

    The grid is taken in slabs of whole interior xi1-planes of about _BLOCK
    nodes (_plane_blocks), so beyond the output array the call allocates
    only a few block-sized work arrays.  Each slab computes the gradient, the five Hessian entries
    the quantity reads, the direct form, tau and both Delta_tau forms with
    the whole-grid expressions in their order, so the values do not depend
    on the blocking.  The two checks run after the last slab, in the
    whole-grid order: Delta_tau's complex form against its T-form, then the
    direct form against -Delta_tau.  Each tests the largest disagreement over
    all slabs against the global scale 1 + max|a|, exactly as one
    whole-grid check would; a per-slab scale would be stricter.
    """
    out = np.full(phi.values.shape, np.nan)
    operator_check = _DualCheck()
    levi_check = _DualCheck()
    for planes, g, hess in _plane_blocks(phi, gradient=True):
        dz2, lap, mix = wirtinger_parts(g, hess)
        phi_y1 = g[0]
        direct = (
            -0.25 * hess[0, 0] * _abs2(dz2)
            + 0.5 * np.real(1j * (1.0 - 1j * phi_y1) * dz2 * mix)
            - 0.25 * (1.0 + phi_y1**2) * lap
        )
        complex_form, t_form = _delta_tau_forms(hess, *tau_fields(g))
        operator_check.add(complex_form[_INNER], t_form[_INNER])
        levi_check.add(direct[_INNER], -complex_form[_INNER])
        out[planes, 1:-1, 1:-1] = direct[_INNER]
    operator_check.verify("delta_tau_fields")
    levi_check.verify("graph_levi_fields")
    return out


@dataclass
class LeviScan:
    """Grid sweep of the graph-form Levi quantity with classifications."""

    phi: ScalarField3
    values: np.ndarray
    tol: float

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def counts(self) -> dict:
        finite = self.values[self.finite_mask]
        near = np.abs(finite) <= self.tol
        return {
            "scanned": int(finite.size),
            "near_zero": int(near.sum()),
            "violating": int(((finite < 0) & ~near).sum()),
            "pseudoconvex_ok": int(((finite > 0) & ~near).sum()),
        }

    def min_sample(self) -> LeviSample:
        vals = np.where(self.finite_mask, self.values, np.inf)
        node = tuple(int(i) for i in np.unravel_index(np.argmin(vals), vals.shape))
        value = float(self.values[node])
        return LeviSample(
            node=node,
            location=self.phi.grid.node_coords(node),
            levi_value=value,
            delta_tau_value=-value,
            classification=classify_value(value, self.tol),
        )

    def samples(self):
        for node in zip(*np.nonzero(self.finite_mask)):
            node = tuple(int(i) for i in node)
            value = float(self.values[node])
            yield LeviSample(
                node=node,
                location=self.phi.grid.node_coords(node),
                levi_value=value,
                delta_tau_value=-value,
                classification=classify_value(value, self.tol),
            )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["xi1", "xi2", "xi3", "levi_value", "classification"])
            for s in self.samples():
                writer.writerow(
                    [repr(s.location[0]), repr(s.location[1]), repr(s.location[2]), repr(s.levi_value), s.classification]
                )

    def summary(self) -> dict:
        worst = self.min_sample()
        out = {"min": worst.levi_value, "argmin": list(worst.location), "tol": self.tol}
        out.update(self.counts())
        return out


def levi_scan(phi: ScalarField3, tol: float | None = None) -> LeviScan:
    """Sweep graph_levi over the interior; default near-zero tolerance is
    10 * h * (gradient Lipschitz constant of phi, else 1)."""
    if tol is None:
        const = phi.regularity.constant if phi.regularity.constant > 0 else 1.0
        tol = 10.0 * phi.grid.spacing * const
    return LeviScan(phi=phi, values=graph_levi_fields(phi), tol=float(tol))


def slice_graph(phi_fn, t: complex, grid: Grid3) -> ScalarField3:
    """Sample phi^t(y1, z2) = phi(y1, z2, z2 * t) on a 3-D grid.

    phi_fn takes (y1 array, complex z2 array, complex z3 array) and returns
    real values; it must cover the sheared slice, else DomainError.
    """
    x1, x2, x3 = grid.mesh()
    z2 = x2 + 1j * x3
    with np.errstate(all="ignore"):
        vals = np.asarray(phi_fn(x1, z2, z2 * complex(t)), dtype=np.float64)
    vals = np.broadcast_to(vals, grid.shape)
    if not np.isfinite(vals).all():
        raise DomainError("slice leaves the domain of phi")
    return ScalarField3(grid, vals.copy())


def slice_ratio_min(sliced: ScalarField3, r_min: float | None = None) -> float:
    """min of phi^t(0, z2) / |z2|^2 over grid nodes with |z2| >= r_min,
    taken on the xi1-plane nearest 0."""
    grid = sliced.grid
    if r_min is None:
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


# still an lru_cache: callers reset it with the other lazy constants
@lru_cache(maxsize=1)
def _unit_square_log_moment() -> float:
    """integral of log(1/|zeta|) over the unit square centered at 0.

    By 8-fold symmetry this is 8 * int_0^{pi/4} R^2/2 (log(1/R) + 1/2) dtheta
    with R = 1/(2 cos theta).  The value is that integral as scipy's quad
    returns it (epsabs = epsrel = 1e-13), frozen so that no run loads
    scipy.integrate; the closed form 3/2 + ln(2)/2 - pi/4 rounds 1 ulp
    higher.  Tests recompute both.
    """
    return 1.0611754268825242


@dataclass(frozen=True)
class GreenIdentityReport:
    r: float
    circle_mean: float
    center_value: float
    area_term: float
    residual: float
    lhs_raw: float
    rhs_raw: float


# sub-samples per cell axis where _log_weights refines a cell
_SUBSAMPLE = 4


def _log_weights(g: DiscField, r: float) -> np.ndarray:
    """Per-node integration weights for int_{D(0,r)} log(r/|zeta|) dlambda.

    Midpoint rule on full cells; the origin cell uses the exact cell
    integral; cells near the origin or the rim are refined by subsampling.
    """
    h = g.spacing
    gx, gy = g.meshes()
    s = np.hypot(gx, gy)
    inside = s < r
    w = np.zeros_like(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        w[inside] = h * h * np.log(r / s[inside])
    origin = (g.half, g.half)
    w[origin] = h * h * (_unit_square_log_moment() + math.log(r / h))
    refine = inside & ((np.abs(s - r) <= 1.5 * h) | (s <= 6.5 * h))
    refine[origin] = False
    a = h / _SUBSAMPLE
    offsets = (np.arange(_SUBSAMPLE) + 0.5) * a - 0.5 * h
    ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
    for i, j in zip(*np.nonzero(refine)):
        sx = gx[i, j] + ox
        sy = gy[i, j] + oy
        ss = np.hypot(sx, sy)
        sub_in = ss < r
        w[i, j] = a * a * float(np.sum(np.log(r / ss[sub_in]))) if sub_in.any() else 0.0
    return w


def green_identity_report(u: DiscField, r: float) -> GreenIdentityReport:
    """Balance of the sub-mean-value identity at center 0, normalized so the
    constant function balances exactly:

        mean_{|zeta|=r} u = u(0) + (1/2pi) int_{D(0,r)} log(r/|zeta|) Delta u.

    The raw sides are that identity times 2pi: lhs_raw = 2pi mean and
    rhs_raw = 2pi u(0) + int_{D(0,r)} log(r/|zeta|) Delta u.
    """
    h = u.spacing
    if r < 4.0 * h:
        raise StencilError(f"r = {r} spans fewer than 4 cells (h = {h})")
    mean = circle_mean(u, 0j, r)
    center = float(u.values[u.half, u.half])
    if not np.isfinite(center):
        raise DomainError("u undefined at the center")
    lap = u.laplacian_field()
    weights = _log_weights(u, r)
    used = weights != 0.0
    if not np.isfinite(lap[used]).all():
        raise DomainError("Laplacian undefined somewhere in the disc of integration")
    area_raw = stable_sum((weights * lap)[used])
    area_term = area_raw / (2.0 * math.pi)
    residual = abs(mean - center - area_term)
    return GreenIdentityReport(
        r=float(r),
        circle_mean=mean,
        center_value=center,
        area_term=area_term,
        residual=residual,
        lhs_raw=2.0 * math.pi * mean,
        rhs_raw=2.0 * math.pi * center + area_raw,
    )


def fit_positive_scale(a, b) -> float:
    """Least-squares positive scalar s minimizing ||a - s b||_2."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = float(np.dot(b, b))
    if denom == 0.0:
        raise ValueError("cannot fit a scale against the zero vector")
    s = float(np.dot(a, b)) / denom
    if s <= 0.0:
        raise ConsistencyError(f"fitted scale {s} is not positive", where="fit_positive_scale")
    return s
