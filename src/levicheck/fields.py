"""Grids, scalar fields, finite differences, and disc sampling.

Coordinates for 3-D fields are xi = (xi1, xi2, xi3) = (y1, Re z2, Im z2),
the real parameters of a graph defining function over a tangent-hyperplane
model.  Stencils are second order: 3-point central for first and pure
second derivatives, 4-point cross for mixed ones.

Reductions use compensated summation in a fixed traversal order so that
results are bit-reproducible regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "StencilError",
    "DomainError",
    "Regularity",
    "Grid3",
    "ScalarField3",
    "DiscField",
    "wirtinger_parts",
    "circle_mean",
    "stable_sum",
]


class StencilError(Exception):
    """Finite-difference stencil does not fit inside the grid."""


class DomainError(ValueError):
    """Evaluation requested outside the field's domain of definition.

    A ValueError, as is ParameterError, so callers that catch ValueError for
    bad input still do; the CLI catches only these subclasses."""


class ParameterError(ValueError):
    """Construction parameters violate a documented precondition."""


def stable_sum(values) -> float:
    """Compensated sum over C-order traversal; thread-count independent."""
    return math.fsum(np.asarray(values, dtype=np.float64).ravel(order="C").tolist())


_REG_TAGS = ("smooth", "c1alpha", "c11", "lipschitz")


@dataclass(frozen=True)
class Regularity:
    """Smoothness class of a field plus a constant estimate.

    tag: smooth | c1alpha | c11 | lipschitz
    alpha: Holder exponent of the gradient, required iff tag == "c1alpha"
    constant: seminorm bound for the weakest declared derivative
    """

    tag: str = "smooth"
    alpha: float | None = None
    constant: float = 0.0

    def __post_init__(self) -> None:
        if self.tag not in _REG_TAGS:
            raise ValueError(f"unknown regularity tag {self.tag!r}")
        if self.tag == "c1alpha":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("c1alpha requires alpha in (0, 1)")
        elif self.alpha is not None:
            raise ValueError("alpha is only meaningful for tag 'c1alpha'")
        if not self.constant >= 0.0:
            raise ValueError("regularity constant must be >= 0")


@dataclass(frozen=True)
class Grid3:
    """Uniform axis-aligned grid in (xi1, xi2, xi3), equal spacing on all axes."""

    origin: tuple[float, float, float]
    spacing: float
    extents: tuple[int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "spacing", float(self.spacing))
        if len(self.origin) != 3 or len(self.extents) != 3:
            raise ParameterError("origin and extents must have length 3")
        if not self.spacing > 0.0:
            raise ParameterError("spacing must be positive")
        if any(n < 5 for n in self.extents):
            # width-2 central stencils must fit
            raise ParameterError("extents must be >= 5 on every axis")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.extents

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * np.arange(self.extents[k])

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij"))

    def node_coords(self, node) -> tuple[float, float, float]:
        i, j, k = (int(n) for n in node)
        return (
            self.origin[0] + self.spacing * i,
            self.origin[1] + self.spacing * j,
            self.origin[2] + self.spacing * k,
        )


@dataclass
class ScalarField3:
    """Real scalar samples on a Grid3; immutable after construction."""

    grid: Grid3
    values: np.ndarray
    regularity: Regularity = field(default_factory=Regularity)

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid extents {self.grid.shape}")
        if not np.isfinite(vals).all():
            raise DomainError("field values must be finite at every node")
        vals.flags.writeable = False
        self.values = vals

    @classmethod
    def from_function(
        cls,
        grid: Grid3,
        fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        regularity: Regularity | None = None,
    ) -> "ScalarField3":
        x1, x2, x3 = grid.mesh()
        vals = np.broadcast_to(np.asarray(fn(x1, x2, x3), dtype=np.float64), grid.shape).copy()
        return cls(grid, vals, regularity if regularity is not None else Regularity())

    # -- node-level finite differences ------------------------------------

    def _require_interior(self, node, margin: int = 1) -> tuple[int, int, int]:
        i, j, k = (int(n) for n in node)
        if not all(margin <= n <= e - 1 - margin for n, e in zip((i, j, k), self.grid.extents)):
            raise StencilError(f"node {(i, j, k)} within {margin} cell(s) of the boundary")
        return i, j, k

    def fd_gradient(self, node) -> tuple[float, float, float]:
        i, j, k = self._require_interior(node)
        v, h = self.values, self.grid.spacing
        return (
            float(v[i + 1, j, k] - v[i - 1, j, k]) / (2.0 * h),
            float(v[i, j + 1, k] - v[i, j - 1, k]) / (2.0 * h),
            float(v[i, j, k + 1] - v[i, j, k - 1]) / (2.0 * h),
        )

    def fd_hessian(self, node) -> np.ndarray:
        i, j, k = self._require_interior(node)
        v, h = self.values, self.grid.spacing
        hh = h * h
        out = np.empty((3, 3))
        out[0, 0] = (v[i + 1, j, k] - 2.0 * v[i, j, k] + v[i - 1, j, k]) / hh
        out[1, 1] = (v[i, j + 1, k] - 2.0 * v[i, j, k] + v[i, j - 1, k]) / hh
        out[2, 2] = (v[i, j, k + 1] - 2.0 * v[i, j, k] + v[i, j, k - 1]) / hh
        out[0, 1] = out[1, 0] = (
            v[i + 1, j + 1, k] - v[i + 1, j - 1, k] - v[i - 1, j + 1, k] + v[i - 1, j - 1, k]
        ) / (4.0 * hh)
        out[0, 2] = out[2, 0] = (
            v[i + 1, j, k + 1] - v[i + 1, j, k - 1] - v[i - 1, j, k + 1] + v[i - 1, j, k - 1]
        ) / (4.0 * hh)
        out[1, 2] = out[2, 1] = (
            v[i, j + 1, k + 1] - v[i, j + 1, k - 1] - v[i, j - 1, k + 1] + v[i, j - 1, k - 1]
        ) / (4.0 * hh)
        return out

    def complex_wirtinger(self, node) -> tuple[complex, float, complex]:
        """(d/dz2, d2/dz2 dz2bar, d2/dy1 dz2bar) at a node, z2 = xi2 + i*xi3."""
        return wirtinger_parts(self.fd_gradient(node), self.fd_hessian(node))

    # -- whole-grid finite differences ------------------------------------

    def _nan_ring(self, arr: np.ndarray) -> np.ndarray:
        for ax in range(3):
            sl_lo = [slice(None)] * arr.ndim
            sl_hi = [slice(None)] * arr.ndim
            sl_lo[arr.ndim - 3 + ax] = 0
            sl_hi[arr.ndim - 3 + ax] = self.grid.extents[ax] - 1
            arr[tuple(sl_lo)] = np.nan
            arr[tuple(sl_hi)] = np.nan
        return arr

    # Whole-grid stencils work on the flattened C-order values: a neighbour
    # steps[ax] cells away along each axis sits a fixed flat offset away, so
    # every stencil term is one contiguous slice.  The flat span [lo, hi) runs
    # from the first interior node to the last; ring nodes inside it pick up
    # wrapped neighbours and are overwritten with NaN afterwards.

    def _flat_span(self) -> tuple[int, int]:
        _, n1, n2 = self.grid.extents
        lo = n1 * n2 + n2 + 1
        return lo, self.values.size - lo

    def _shifted(self, steps: dict[int, int], lo: int, hi: int) -> np.ndarray:
        """Flat values at node + steps, for every flat node in [lo, hi)."""
        _, n1, n2 = self.grid.extents
        offset = sum((n1 * n2, n2, 1)[ax] * step for ax, step in steps.items())
        return self.values.reshape(-1)[lo + offset : hi + offset]

    def stencil_planes(self, first: int, stop: int, grad=None, hess=None) -> None:
        """Central differences over the xi1-planes [first, stop), written in place.

        1 <= first < stop <= n0 - 1.  grad is a (3, L) array and hess maps
        each wanted entry (a, b), a <= b, to an (L,) array, where
        L = (stop - first) * n1 * n2 and entries run in C order over those
        planes.  Every node from the grid's first interior node to its last
        is written; ring nodes among them get wrapped neighbours, and the
        n2 + 1 entries before the first interior node (first == 1) and after
        the last (stop == n0 - 1) are left as they are.  Each entry takes
        fd_gradient's and fd_hessian's operations in their order, so interior
        values match the node-level stencils bit for bit, whatever the planes.
        """
        plane = self.grid.extents[1] * self.grid.extents[2]
        span_lo, span_hi = self._flat_span()
        lo, hi = max(first * plane, span_lo), min(stop * plane, span_hi)
        rows = slice(lo - first * plane, hi - first * plane)
        h = self.grid.spacing
        if grad is not None:
            inner = grad[:, rows]
            for ax in range(3):
                np.subtract(
                    self._shifted({ax: 1}, lo, hi), self._shifted({ax: -1}, lo, hi), out=inner[ax]
                )
            inner /= 2.0 * h
        if not hess:
            return
        hh = h * h
        twice_centre = 2.0 * self._shifted({}, lo, hi)
        for (a, b), out in hess.items():
            entry = out[rows]
            if a == b:
                np.subtract(self._shifted({a: 1}, lo, hi), twice_centre, out=entry)
                entry += self._shifted({a: -1}, lo, hi)
                entry /= hh
            else:
                np.subtract(
                    self._shifted({a: 1, b: 1}, lo, hi),
                    self._shifted({a: 1, b: -1}, lo, hi),
                    out=entry,
                )
                entry -= self._shifted({a: -1, b: 1}, lo, hi)
                entry += self._shifted({a: -1, b: -1}, lo, hi)
                entry /= 4.0 * hh

    def gradient_fields(self) -> np.ndarray:
        """Shape (3,) + extents; valid one cell in from every face, NaN on the ring."""
        n0, n1, n2 = self.grid.extents
        g = np.empty((3,) + self.values.shape)
        self.stencil_planes(1, n0 - 1, grad=g.reshape(3, -1)[:, n1 * n2 : (n0 - 1) * n1 * n2])
        return self._nan_ring(g)

    def hessian_fields(self) -> np.ndarray:
        """Shape (3, 3) + extents; valid one cell in from every face, NaN on the ring."""
        n0, n1, n2 = self.grid.extents
        out = np.empty((3, 3) + self.values.shape)
        inner = out.reshape(3, 3, -1)[:, :, n1 * n2 : (n0 - 1) * n1 * n2]
        upper = [(a, b) for a in range(3) for b in range(a, 3)]
        self.stencil_planes(1, n0 - 1, hess={(a, b): inner[a, b] for a, b in upper})
        for a, b in ((0, 1), (0, 2), (1, 2)):
            inner[b, a] = inner[a, b]
        return self._nan_ring(out)

    def wirtinger_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d/dz2, d2/dz2 dz2bar, d2/dy1 dz2bar) arrays over the grid."""
        return wirtinger_parts(self.gradient_fields(), self.hessian_fields())


def wirtinger_parts(g, hess):
    """(d/dz2, d2/dz2 dz2bar, d2/dy1 dz2bar) from the xi-gradient and xi-Hessian,
    z2 = xi2 + i*xi3; works on one node's values and on whole-grid arrays alike."""
    dz2 = 0.5 * (g[1] - 1j * g[2])
    dz2dz2bar = 0.25 * (hess[1, 1] + hess[2, 2])
    dy1dz2bar = 0.5 * (hess[0, 1] + 1j * hess[0, 2])
    return dz2, dz2dz2bar, dy1dz2bar


@dataclass
class DiscField:
    """Real scalar samples on a square grid covering the open disc |z| < radius.

    Values live on the full square (side = 2*half+1 nodes, node [half, half]
    at the origin); NaN marks nodes where the generator is undefined.  The
    authoritative domain is the node set with |z| < radius (`inside`); the
    finite pattern may extend past the rim (polynomials) or stop short of it
    (log-type caps).  Interpolation needs all four cell corners finite.
    """

    radius: float
    spacing: float
    values: np.ndarray
    half: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.radius <= 1.0:
            raise ParameterError("radius must lie in (0, 1]")
        if not self.spacing > 0.0:
            raise ParameterError("spacing must be positive")
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("values must be a square 2-D array")
        n = vals.shape[0]
        if n < 5 or n % 2 == 0:
            raise ParameterError("side must be odd and >= 5 so the origin is a node")
        vals.flags.writeable = False
        self.values = vals
        self.half = n // 2

    @classmethod
    def from_function(
        cls,
        radius: float,
        spacing: float,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        pad_cells: int = 2,
    ) -> "DiscField":
        """Sample fn on the square grid covering the disc of this radius.

        fn gets sparse meshes, x of shape (m, 1) and y of shape (1, m), and
        must broadcast: its result may have any shape that broadcasts to
        (m, m), e.g. (m, 1) for lambda x, y: x.  Terms in one coordinate
        then cost O(m) rather than O(m^2).  Non-finite values become NaN.
        """
        if not spacing > 0.0:
            raise ParameterError("spacing must be positive")
        half = int(math.ceil(radius / spacing)) + int(pad_cells)
        coords = spacing * np.arange(-half, half + 1)
        gx, gy = np.meshgrid(coords, coords, indexing="ij", sparse=True)
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(
                np.asarray(fn(gx, gy), dtype=np.float64), (len(coords), len(coords))
            ).copy()
        vals[~np.isfinite(vals)] = np.nan
        return cls(radius, spacing, vals)

    def axis(self) -> np.ndarray:
        return self.spacing * (np.arange(self.values.shape[0]) - self.half)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        coords = self.axis()
        return tuple(np.meshgrid(coords, coords, indexing="ij"))

    @property
    def inside(self) -> np.ndarray:
        gx, gy = self.meshes()
        return np.hypot(gx, gy) < self.radius

    def node_coords(self, node) -> tuple[float, float]:
        i, j = (int(n) for n in node)
        return (self.spacing * (i - self.half), self.spacing * (j - self.half))

    def _cell(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower cell index along one axis (points within 1e-9 cell of the
        first or last node snap into the square) and whether it exists."""
        n = self.values.shape[0]
        i = np.floor(w)
        i = np.where((i == -1) & (w >= -1e-9), 0.0, i)
        i = np.where((i == n - 1) & (w <= n - 1 + 1e-9), n - 2.0, i)
        return i, (0 <= i) & (i <= n - 2)

    def sample(self, x, y) -> np.ndarray:
        """Bilinear interpolation at arrays of points; NaN outside the sampled
        square and wherever one of the four cell corners is non-finite."""
        h = self.spacing
        u = np.asarray(x, dtype=np.float64) / h + self.half
        v = np.asarray(y, dtype=np.float64) / h + self.half
        i, ok_i = self._cell(u)
        j, ok_j = self._cell(v)
        ok = ok_i & ok_j
        ii = np.where(ok, i, 0).astype(np.intp)
        jj = np.where(ok, j, 0).astype(np.intp)
        c00 = self.values[ii, jj]
        c10 = self.values[ii + 1, jj]
        c01 = self.values[ii, jj + 1]
        c11 = self.values[ii + 1, jj + 1]
        with np.errstate(invalid="ignore"):
            fx, fy = u - i, v - j
            out = (
                c00 * (1.0 - fx) * (1.0 - fy)
                + c10 * fx * (1.0 - fy)
                + c01 * (1.0 - fx) * fy
                + c11 * fx * fy
            )
        ok &= np.isfinite(c00) & np.isfinite(c10) & np.isfinite(c01) & np.isfinite(c11)
        return np.where(ok, out, np.nan)

    def value(self, z) -> float:
        """Bilinear interpolation at one point; DomainError off the finite
        sample set."""
        if isinstance(z, complex):
            x, y = z.real, z.imag
        else:
            x, y = float(z[0]), float(z[1])
        out = float(self.sample(x, y))
        if math.isnan(out):
            raise DomainError(f"point ({x}, {y}) outside the finite sample set")
        return out

    def laplacian_field(self) -> np.ndarray:
        """5-point Laplacian; NaN on the outer ring and wherever inputs are NaN."""
        v = self.values
        hh = self.spacing**2
        lap = np.full(v.shape, np.nan)
        lap[1:-1, 1:-1] = (
            v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]
        ) / hh
        return lap


def circle_mean(g: DiscField, center, r: float, n_theta: int = 512) -> float:
    """Mean of g over the circle |z - center| = r (trapezoid rule in angle).

    Uniform periodic sampling makes the trapezoid rule a plain average.
    """
    if n_theta < 256:
        raise ParameterError("n_theta must be >= 256")
    if not r > 0.0:
        raise ParameterError("circle radius must be positive")
    if isinstance(center, complex):
        cx, cy = center.real, center.imag
    else:
        cx, cy = float(center[0]), float(center[1])
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    xs = cx + r * np.cos(theta)
    ys = cy + r * np.sin(theta)
    samples = g.sample(xs, ys)
    if np.isnan(samples).any():
        raise DomainError(f"circle |z - ({cx}, {cy})| = {r} leaves the finite sample set")
    return math.fsum(samples.tolist()) / n_theta
