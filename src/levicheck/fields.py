"""Grids, scalar fields, finite differences, and disc sampling.

Coordinates for 3-D fields are xi = (xi1, xi2, xi3) = (y1, Re z2, Im z2),
the real parameters of a graph defining function over a tangent-hyperplane
model.  Stencils are second order: 3-point central for first and pure
second derivatives, 4-point cross for mixed ones.

Reductions are correctly rounded (stable_sum, math.fsum), so results are
bit-reproducible regardless of traversal order and thread count.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "StencilError",
    "DomainError",
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


# binary exponents stable_sum's sigma may take: sigma at most 2^1023, and
# sigma * 2^-53 no less than 2^-1022, the least normal double
_SIGMA_EXPONENTS = range(-1022 + 53, 1023 + 1)
# nodes DiscField.from_function samples beyond the disc's rim on each side
_PAD_CELLS = 2
# equally spaced angles circle_mean samples on a circle
_N_THETA = 512


def stable_sum(values) -> float:
    """math.fsum of the values, bit for bit: their correctly rounded sum,
    the same in any order of the values and at any thread count.

    The sum is taken by error-free extraction (Rump, Ogita & Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput.
    31(1), 2008, ExtractVector and its Lemma 3.3).  With max|p| < 2^e over
    the n values p, a pass takes sigma = 2^(e + bitlen(n + 2)) and
    q = (sigma + p) - sigma, p rounded to a multiple of sigma * 2^-53; the
    rounding and p - q are exact, and every |q| <= 2^e, so every partial
    sum of the q's is such a multiple below sigma and tau = q.sum() is
    exact in any order.  The next pass takes p - q, all below
    sigma * 2^-53.  Once p is all zero the taus sum exactly to the values,
    and math.fsum rounds that exact sum correctly, as it would the values'.

    math.fsum on the values themselves, in their C order, gives the sum
    where the passes cannot: a NaN or an infinity (fsum's NaN, inf or its
    ValueError for -inf + inf), a first sigma above 2^1023 (where fsum
    may raise OverflowError) and a sigma * 2^-53 below the normal range.
    It reads the values through a memoryview, one at a time, never as one
    list.  An input with no nonzero value sums to fsum's zero: that of
    [-0.0] if every value is -0.0, else that of [0.0].
    """
    flat = np.asarray(values, dtype=np.float64).ravel(order="C")
    bits = (flat.size + 2).bit_length()
    p, q = np.empty_like(flat), np.empty_like(flat)
    rest = flat
    taus = []
    top = max(flat.max(initial=0.0), -flat.min(initial=0.0))
    while 0.0 < top < math.inf:
        e = math.frexp(top)[1] + bits
        if e not in _SIGMA_EXPONENTS:
            break
        sigma = math.ldexp(1.0, e)
        np.add(rest, sigma, out=q)
        q -= sigma
        rest = np.subtract(rest, q, out=p)
        taus.append(float(q.sum()))
        top = max(p.max(), -p.min())
    if top != 0.0:
        return math.fsum(memoryview(flat))
    if taus:
        return math.fsum(taus)
    # no nonzero value: the sign of fsum's zero follows from the values' signs
    return math.fsum([-0.0] if flat.size and np.signbit(flat).all() else [0.0])


def _workers() -> int:
    """The CPUs this process may run on: the threads _run_blocks deals row
    blocks, slabs and radii to (grid_values, levi._slab_pass for every
    Delta_tau pass, frostman_certificate), all bitwise independent of it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_blocks(blocks, buffer: Callable, visit: Callable) -> list:
    """[visit(buf, block) for block in blocks], in block order at any thread
    count: the blocks are dealt round-robin over min(_workers(), len(blocks))
    threads (at least one), each with its own buf = buffer(); the caller runs
    share 0 and pool threads the rest, and one share runs inline.  The one
    thread-pool dispatch: grid_values, levi._slab_pass, frostman_certificate."""
    shares = max(1, min(_workers(), len(blocks)))
    # made here: made on pool threads, they left ~1.5 MB more peak RSS in grid_values runs
    bufs = [buffer() for _ in range(shares)]
    out = [None] * len(blocks)

    def run(k: int) -> None:
        for i in range(k, len(blocks), shares):
            out[i] = visit(bufs[k], blocks[i])

    if shares == 1:
        run(0)
        return out
    with concurrent.futures.ThreadPoolExecutor(shares - 1) as pool:
        rest = pool.map(run, range(1, shares))
        run(0)
        list(rest)
    return out


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
        """Sparse ij meshes of shapes (n0, 1, 1), (1, n1, 1) and (1, 1, n2);
        they broadcast to the grid shape, so terms in one coordinate cost
        O(n) rather than a whole-grid array."""
        return tuple(
            np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij", sparse=True)
        )


@dataclass
class ScalarField3:
    """Real scalar samples on a Grid3; immutable after construction.  No
    smoothness class is stored: the exponents alpha and p a sweep is
    judged by belong to its case (mollify.StaircaseCase).

    Writeable values are made C-contiguous and then frozen; values that are
    already read-only, such as a broadcast view, are kept as they are.
    Every finite difference, at one node (fd_gradient, fd_hessian) or over
    whole xi1-planes (stencil_planes and the *_fields arrays), is one call
    of _central_differences.
    """

    grid: Grid3
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.flags.writeable:
            vals = np.ascontiguousarray(vals)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid extents {self.grid.shape}")
        # a stride-0 axis repeats one plane of memory: its first plane holds every value
        if not np.isfinite(vals[tuple(slice(None) if s else slice(1) for s in vals.strides)]).all():
            raise DomainError("field values must be finite at every node")
        vals.flags.writeable = False
        self.values = vals

    @classmethod
    def from_function(
        cls, grid: Grid3, fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ) -> "ScalarField3":
        """A smooth field: fn gets grid.mesh()'s sparse meshes, and its result
        must broadcast to the grid shape."""
        x1, x2, x3 = grid.mesh()
        vals = np.broadcast_to(np.asarray(fn(x1, x2, x3), dtype=np.float64), grid.shape).copy()
        return cls(grid, vals)

    # -- finite differences ---------------------------------------------------

    def _require_interior(self, node) -> np.ndarray:
        """The 3x3x3 block of values around node; StencilError unless node
        is interior."""
        i, j, k = (int(n) for n in node)
        if not all(1 <= n <= e - 2 for n, e in zip((i, j, k), self.grid.extents)):
            raise StencilError(f"node {(i, j, k)} on the boundary")
        return self.values[i - 1 : i + 2, j - 1 : j + 2, k - 1 : k + 2]

    def fd_gradient(self, node) -> tuple[float, float, float]:
        grad = np.empty((3, 1, 1, 1))
        _central_differences(self._require_interior(node), self.grid.spacing, grad=grad)
        return tuple(grad.ravel().tolist())

    def fd_hessian(self, node) -> np.ndarray:
        out = np.empty((3, 3, 1, 1, 1))
        upper = {(a, b): out[a, b] for a in range(3) for b in range(a, 3)}
        _central_differences(self._require_interior(node), self.grid.spacing, hess=upper)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            out[b, a] = out[a, b]
        return out.reshape(3, 3)

    def complex_wirtinger(self, node) -> tuple[complex, float, complex]:
        """(d/dz2, d2/dz2 dz2bar, d2/dy1 dz2bar) at a node, z2 = xi2 + i*xi3."""
        return wirtinger_parts(self.fd_gradient(node), self.fd_hessian(node))

    def stencil_planes(self, first: int, stop: int, grad=None, hess=None) -> None:
        """Central differences at the interior nodes of the xi1-planes
        [first, stop), written in place.

        1 <= first < stop <= n0 - 1.  grad is a (3, P, n1 - 2, n2 - 2) array
        and hess maps each wanted entry (a, b), a <= b, to a
        (P, n1 - 2, n2 - 2) array, P = stop - first; entry [..., p, j, k]
        belongs to node (first + p, j + 1, k + 1), and every entry is
        written.  fd_gradient and fd_hessian run the same stencil on the
        block around one node, so the values match theirs bit for bit,
        whatever the planes.
        """
        _central_differences(self.values[first - 1 : stop + 1], self.grid.spacing, grad, hess)

    def gradient_fields(self) -> np.ndarray:
        """Shape (3,) + extents; valid one cell in from every face, NaN on the ring."""
        g = np.full((3,) + self.values.shape, np.nan)
        self.stencil_planes(1, self.grid.extents[0] - 1, grad=g[:, 1:-1, 1:-1, 1:-1])
        return g

    def hessian_fields(self) -> np.ndarray:
        """Shape (3, 3) + extents; valid one cell in from every face, NaN on the ring."""
        n0 = self.grid.extents[0]
        out = np.full((3, 3) + self.values.shape, np.nan)
        inner = out[:, :, 1:-1, 1:-1, 1:-1]
        upper = [(a, b) for a in range(3) for b in range(a, 3)]
        self.stencil_planes(1, n0 - 1, hess={(a, b): inner[a, b] for a, b in upper})
        for a, b in ((0, 1), (0, 2), (1, 2)):
            inner[b, a] = inner[a, b]
        return out

    def wirtinger_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d/dz2, d2/dz2 dz2bar, d2/dy1 dz2bar) arrays over the grid."""
        return wirtinger_parts(self.gradient_fields(), self.hessian_fields())


def _central_differences(block: np.ndarray, h: float, grad=None, hess=None) -> None:
    """Central differences of spacing h at the interior nodes of a 3-D block
    of values, written in place.

    grad is a (3,) + interior-shape array and hess maps each wanted entry
    (a, b), a <= b, to an interior-shape array.  Each stencil term is a
    view of the block shifted by one node, and each entry takes its terms
    in one fixed order, so a node's values do not depend on the block.
    """
    n0, n1, n2 = block.shape

    def shifted(steps: dict[int, int]) -> np.ndarray:
        # the values at node + steps, as a view over the interior nodes
        s0, s1, s2 = (steps.get(ax, 0) for ax in range(3))
        return block[1 + s0 : n0 - 1 + s0, 1 + s1 : n1 - 1 + s1, 1 + s2 : n2 - 1 + s2]

    if grad is not None:
        for ax in range(3):
            np.subtract(shifted({ax: 1}), shifted({ax: -1}), out=grad[ax])
        grad /= 2.0 * h
    if not hess:
        return
    hh = h * h
    twice_centre = 2.0 * shifted({})
    for (a, b), entry in hess.items():
        if a == b:
            np.subtract(shifted({a: 1}), twice_centre, out=entry)
            entry += shifted({a: -1})
            entry /= hh
        else:
            np.subtract(shifted({a: 1, b: 1}), shifted({a: 1, b: -1}), out=entry)
            entry -= shifted({a: -1, b: 1})
            entry += shifted({a: -1, b: -1})
            entry /= 4.0 * hh


def wirtinger_parts(g, hess):
    """(d/dz2, d2/dz2 dz2bar, d2/dy1 dz2bar) from the xi-gradient and xi-Hessian,
    z2 = xi2 + i*xi3; works on one node's values and on whole-grid arrays alike."""
    dz2 = 0.5 * (g[1] - 1j * g[2])
    dz2dz2bar = 0.25 * (hess[1, 1] + hess[2, 2])
    dy1dz2bar = 0.5 * (hess[0, 1] + 1j * hess[0, 2])
    return dz2, dz2dz2bar, dy1dz2bar


@dataclass
class DiscField:
    """Real scalar samples on a square grid covering the open unit disc.

    Values live on the full square (side = 2*half+1 nodes, node [half, half]
    at the origin); NaN marks nodes where the generator is undefined.  The
    authoritative domain is the node set with |z| < 1; the finite pattern
    may extend past the rim (polynomials) or stop short of it (log-type
    caps).  Interpolation needs all four cell corners finite.
    """

    spacing: float
    values: np.ndarray
    half: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.spacing < 1.0:
            # at spacing >= 1 the origin is the only node inside the disc
            raise ParameterError(f"spacing must be positive and below the radius, got {self.spacing!r}")
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
        cls, spacing: float, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> "DiscField":
        """Sample fn on the square grid covering the unit disc, with
        _PAD_CELLS nodes beyond the rim on every side.

        fn gets sparse meshes, x of shape (m, 1) and y of shape (1, m), and
        must broadcast: its result may have any shape that broadcasts to
        (m, m), e.g. (m, 1) for lambda x, y: x.  Terms in one coordinate
        then cost O(m) rather than O(m^2).  Non-finite values become NaN.
        """
        if not 0.0 < spacing < 1.0:
            raise ParameterError(f"spacing must be positive and below the radius, got {spacing!r}")
        half = int(math.ceil(1.0 / spacing)) + _PAD_CELLS
        coords = spacing * np.arange(-half, half + 1)
        gx, gy = np.meshgrid(coords, coords, indexing="ij", sparse=True)
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(
                np.asarray(fn(gx, gy), dtype=np.float64), (len(coords), len(coords))
            ).copy()
        vals[~np.isfinite(vals)] = np.nan
        return cls(spacing, vals)

    def axis(self) -> np.ndarray:
        return self.spacing * (np.arange(self.values.shape[0]) - self.half)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sparse ij meshes of shapes (m, 1) and (1, m); they broadcast to
        the square, as in Grid3.mesh()."""
        coords = self.axis()
        return tuple(np.meshgrid(coords, coords, indexing="ij", sparse=True))

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


def circle_mean(g: DiscField, centers, r: float):
    """Means of g over the circles |z - c| = r (trapezoid rule in angle,
    _N_THETA angles) for complex centres c of any shape; a float for one.

    One DiscField.sample call samples every circle, and each mean is the
    fsum of its own samples: the same bits as for that circle alone.
    """
    if not r > 0.0:
        raise ParameterError("circle radius must be positive")
    c = np.asarray(centers, dtype=np.complex128)
    theta = 2.0 * math.pi * np.arange(_N_THETA) / _N_THETA
    xs = c.real[..., None] + r * np.cos(theta)
    samples = g.sample(xs, c.imag[..., None] + r * np.sin(theta))
    off = np.isnan(samples).any(axis=-1)
    if off.any():
        bad = c[off].flat[0]
        raise DomainError(f"circle |z - ({bad.real}, {bad.imag})| = {r} leaves the finite sample set")
    means = [math.fsum(row) / _N_THETA for row in samples.reshape(-1, _N_THETA).tolist()]
    return means[0] if c.ndim == 0 else np.reshape(means, c.shape)
