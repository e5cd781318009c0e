"""Square Cantor sets, self-similar measures, and Green potentials on the disc.

The chain built here: a four-corner Cantor set E with contraction
a = 4^{-1/alpha} has box dimension alpha; the uniform mass split over its
generation-n squares gives a probability measure mu with the growth bound
mu(D(z,r)) <= C r^alpha; the Green potential of mu vanishes on the unit
circle, is superharmonic with Delta u = -mu, and its second differences
obey a Zygmund-type bound of order alpha.  Subtracting u from the log cap
of the ball produces a Hartogs-type domain whose subharmonicity defect
concentrates on E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import DiscField, DomainError, ParameterError
from .staircase import HartogsDomain, _ball_cap_values

__all__ = [
    "AtomicMeasure",
    "BoxCountRegression",
    "FrostmanCertificate",
    "GreenPotential",
    "SquareCantor",
    "box_dimension",
    "build_square_cantor",
    "contraction_ratio",
    "disc_mass_recovery",
    "frostman_certificate",
    "frostman_measure",
    "graph_set_points",
    "potential_field",
    "zygmund_domain",
    "zygmund_seminorm",
]

# largest start side whose diagonal still fits in the closed disc of
# radius 1/2: 0.7 * sqrt(2)/2 = 0.49497 < 1/2
_START_SIDE = 0.7
_GENERATION_BUDGET = 10
# node-atom pairs per tile of GreenPotential.grid_values (its float64 work
# buffer takes at most 2 MiB, one core's L2 cache), and about the keys per
# chunk of box_dimension, as whole key rows
_BLOCK = 1 << 16
# (center, square) pairs per _disc_counts step: fastest from 1 << 12 to 1 << 14
_PAIRS = 1 << 13
_TAIL = 1e-17  # bound on the dropped tail of each of grid_values' series
# frostman_certificate checks every center of up to this many atoms, else a
# stride sample
_MAX_CENTERS = 4096


def contraction_ratio(alpha: float) -> float:
    """a = 4^{-1/alpha}; corner squares stay disjoint exactly when a < 1/2."""
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ParameterError(
            f"alpha must lie in (0, 2), got {alpha} (at alpha >= 2 the ratio "
            "4^(-1/alpha) reaches 1/2 and the corner squares overlap)"
        )
    return 4.0 ** (-1.0 / alpha)


@dataclass(frozen=True, eq=False)
class SquareCantor:
    """Generation-n stage of the four-corner Cantor construction.

    squares holds the 4^n lower-left corners (x, y) as a read-only
    (4^n, 2) array, and side the common side;
    the whole configuration is centered at 0 and contained in the closed
    disc of radius 1/2.  Sides contract by exactly a = 4^{-1/alpha} per
    generation starting from a fixed root side, so side ratios, counts,
    and disjointness are construction invariants rather than estimates.
    """

    alpha: float
    generation: int
    side: float
    squares: np.ndarray

    @property
    def ratio(self) -> float:
        return contraction_ratio(self.alpha)

    def centers(self) -> np.ndarray:
        """(4^n, 2) array of square centers, construction order."""
        return self.squares + 0.5 * self.side


def build_square_cantor(alpha: float, n: int) -> SquareCantor:
    """Iterate the four-corner subdivision n times inside D(0, 1/2)."""
    a = contraction_ratio(alpha)
    n = int(n)
    if n < 1:
        raise ParameterError(f"generation must be >= 1, got {n}")
    if n > _GENERATION_BUDGET:
        raise ParameterError(
            f"generation {n} exceeds the 4^{_GENERATION_BUDGET} square budget"
        )
    side = _START_SIDE
    corners = np.array([[-0.5 * side, -0.5 * side]])
    for _ in range(n):
        child = side * a
        offset = side - child
        corners = np.concatenate(
            [
                corners,
                corners + [offset, 0.0],
                corners + [0.0, offset],
                corners + [offset, offset],
            ]
        )
        side = child
    corners.flags.writeable = False
    return SquareCantor(alpha=float(alpha), generation=n, side=side, squares=corners)


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Probability measure with mass masses[j] at locations[j].

    Both are read-only 1-D arrays of equal length, complex128 and float64.
    Every location lies in the open unit disc, where the Green kernel is
    finite off the diagonal, every mass lies in (0, 1], and the masses sum
    to 1 within 1e-12.  The Cantor stage n carries one atom of mass 4^{-n}
    (a power of two, so the total is exactly 1.0) per square center.
    """

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        locations = np.array(self.locations, dtype=np.complex128)
        masses = np.array(self.masses, dtype=np.float64)
        if locations.ndim != 1 or locations.shape != masses.shape or not masses.size:
            raise ParameterError("measure needs at least one atom, as equal-length 1-D arrays")
        # NaN fails every comparison, so each check below rejects it
        if not np.all(np.abs(locations) < 1.0):
            raise ParameterError("atom locations must be finite and inside the open unit disc")
        # masses at most 1 keep the fsum below overflow
        if not np.all((masses > 0.0) & (masses <= 1.0)):
            raise ParameterError("atom masses must lie in (0, 1]")
        for name, array in (("locations", locations), ("masses", masses)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if not abs(self.total_mass() - 1.0) <= 1e-12:
            raise ParameterError(f"total mass {self.total_mass()} is not 1")

    @property
    def atoms(self) -> np.ndarray:
        """The locations: levibench/tracing.py counts atoms with len(measure.atoms)."""
        return self.locations

    def total_mass(self) -> float:
        return math.fsum(self.masses.tolist())


def frostman_measure(square_set: SquareCantor) -> AtomicMeasure:
    """Uniform mass split: mass 4^{-n} at the center of every square."""
    centers = square_set.centers()
    masses = np.full(len(centers), 4.0 ** (-square_set.generation))
    locations = centers[:, 0] + 1j * centers[:, 1]
    return AtomicMeasure(locations=locations, masses=masses)


@dataclass(frozen=True)
class FrostmanCertificate:
    """Empirical growth constant sup mu(D(z,r)) / r^alpha.

    The sup runs over sampled atom centers and dyadic radii above the
    current construction scale; below that scale the finite-stage measure
    degenerates to single atoms and the ratio is no longer meaningful.
    """

    constant: float
    samples: int
    radii: tuple[float, ...]


def frostman_certificate(square_set: SquareCantor) -> FrostmanCertificate:
    """Certify the growth bound over dyadic radii and sampled centers.

    Checks every atom as a center when there are at most _MAX_CENTERS,
    else a deterministic stride sample.  Radii run down to the atom
    resolution: the smallest dyadic radius still covering at least one
    nearest neighbor gap, read off the construction (_least_gap).  mu(D(z,
    r)) is count x 4^{-n}, counted on the construction's quadtree
    (_disc_counts): squares wholly in or out of the disc count at once,
    single atoms only where the circle cuts.  No margin:
    rounded differences, squares and sums are monotone, so an atom's
    rounded distance lies between its box's nearest and farthest."""
    alpha = square_set.alpha
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    pts = square_set.centers()
    centers = pts[:: max(1, len(pts) // _MAX_CENTERS)]
    resolution = _least_gap(pts)
    # at small alpha offsets round away onto corners: r would halve to 0.0 forever
    if not resolution > 0.0:
        raise ParameterError("frostman_certificate needs distinct atom locations")
    radii = []
    r = 0.5
    while r >= resolution:
        radii.append(r)
        r *= 0.5
    if len(radii) < 2:
        raise ParameterError("measure too coarse for a dyadic radius sweep")
    boxes = _square_boxes(pts)
    # the closed-disc count is at least the open-disc count behind
    # mu(D(z, r)), so the constant errs on the conservative side; the radii
    # go over the one pool and their integer peaks fold in radius order
    peaks = fields._run_blocks(radii, lambda: None, lambda _, r: _disc_counts(boxes, centers, r).max())
    best = 0.0
    mass = 4.0 ** (-square_set.generation)
    for r, peak in zip(radii, peaks):
        best = max(best, float(peak * mass / r**alpha))
    return FrostmanCertificate(
        constant=best, samples=len(centers) * len(radii), radii=tuple(radii)
    )


def _least_gap(points: np.ndarray) -> float:
    """Least distance between two of build_square_cantor's atoms: the least
    sibling gap of the last generation, where atom i's x-sibling is i + N/4
    (rows 1 and 3 of the (4, N/4) split against rows 0 and 2) and its
    y-sibling i + N/2, and a sibling pair differs in one coordinate only.

    No other pair is closer.  Two atoms whose least common square has side
    S sit in two of its corner children of side aS, a gap (1 - 2a) S apart
    along x or y, and each lies half its own side t inside its child, so
    they are at least (1 - 2a) S + t apart.  Siblings (S = s, the last
    parent's side, t = as) are (1 - a) s apart; any other pair has S >= s/a
    and is farther by (1 - 2a)(S - s), at least (1 - 2a)(1 - a) S.  That
    is exact arithmetic; in float64 the result equals a k-d tree's least
    gap bit for bit over alphas in (0, 2) and generations 1 to 8, 0.0
    where small-alpha offsets round away onto their corners included."""
    q = points.reshape(4, -1, 2)
    dx = np.abs(q[1::2, :, 0] - q[::2, :, 0]).min()
    dy = np.abs(q[2:, :, 1] - q[:2, :, 1]).min()
    return float(min(dx, dy))


def _square_boxes(points: np.ndarray) -> list[np.ndarray]:
    """Atom bounding boxes of the quadtree's squares, root first: entry k
    has rows xmin, ymin, -xmax, -ymax, exact over the atoms, of the level-k
    squares.  In build_square_cantor's order the atoms with index = g mod
    4^k make up level-k square g, whose children are g + 4^k d, d < 4."""
    boxes = [np.concatenate([points, -points], axis=1)]
    while len(boxes[-1]) > 1:
        boxes.append(boxes[-1].reshape(4, -1, 4).min(axis=0))
    return boxes[::-1]


def _disc_counts(boxes: list[np.ndarray], centers: np.ndarray, r: float) -> np.ndarray:
    """Atoms in the closed disc dx*dx + dy*dy <= r*r about each (x, y) row
    of centers, as the per-atom test counts them, from _square_boxes.

    (center, square) pairs walk down the tree, _PAIRS at most a step: a
    square whose farthest box corner passes the test adds all its atoms,
    one whose nearest box point fails it adds none, any other splits into
    its four children.  A leaf's box is its atom, so its test is exact."""
    rr = r * r
    cen = np.concatenate([centers, -centers], axis=1)
    counts = np.zeros(len(centers), dtype=np.int64)
    todo = [(0, np.arange(len(centers)), np.zeros(len(centers), dtype=np.intp))]
    while todo:
        k, ci, sq = todo.pop()
        # rows x - xmin, y - ymin, xmax - x, ymax - y
        d = np.ascontiguousarray((cen.take(ci, axis=0) - boxes[k].take(sq, axis=0)).T)
        lo, hi = d[:2], d[2:]
        far, near = np.maximum(lo, hi) ** 2, np.minimum(np.minimum(lo, hi), 0.0) ** 2
        inside = far[0] + far[1] <= rr
        atoms = 1 << 2 * (len(boxes) - 1 - k)  # in a level-k square
        counts += np.bincount(ci.compress(inside), minlength=len(counts)) * atoms
        split = np.flatnonzero((near[0] + near[1] <= rr) & ~inside)
        ci = np.tile(ci.take(split), 4)
        sq = np.add.outer(np.arange(4) << 2 * k, sq.take(split)).ravel()
        todo += [(k + 1, ci[i : i + _PAIRS], sq[i : i + _PAIRS]) for i in range(0, len(ci), _PAIRS)]
    return counts


# -- Green potentials --------------------------------------------------------


@dataclass(frozen=True)
class GreenPotential:
    """u(z) = sum_j m_j * (-log|(z - w_j)/(1 - z conj(w_j))|).

    u >= 0 on the open disc, vanishes identically on |z| = 1, and carries
    distributional Laplacian -2 pi times the measure (in the convention
    where Delta log|z| = 2 pi delta_0).
    """

    measure: AtomicMeasure

    def __call__(self, z: complex) -> float:
        """u(z) on the closed disc, as a 0-d grid_values call."""
        z = complex(z)
        if abs(z) > 1.0 + 1e-12:
            raise DomainError(f"potential evaluated outside the closed disc: {z}")
        return float(self.grid_values(z.real, z.imag))

    def grid_values(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; atom nodes come back +inf.

        gx and gy are float64 coordinates of any two broadcastable shapes;
        sparse (m, 1) and (1, m) meshes make every one-coordinate term O(m)
        per atom.  With moments C_k = sum_j m_j conj(w_j)^k / k, the image
        half sum_j m_j log|1 - z conj(w_j)| is -Re sum_{k<=K} C_k z^k and, for
        |z| > max|w_j|, the free-space half is -M log|z| + Re sum_{k<=K}
        conj(C_k) z^-k (M the total mass); K is the least order with tail
        bound rho^(K+1) / ((K+1)(1 - rho)) < _TAIL, counted only up to the
        atom count N.  DomainError unless max|z| max|w_j| < 1 over the nodes.

        Far route, when min|z| > max|w_j| and K < N for rho = max(max|w_j| /
        min|z|, max|z| max|w_j|): both series by Horner on the calling
        thread, no atom loop.  Otherwise tiles of about _BLOCK node-atom
        pairs, an atom chunk by a row block, on one thread per usable CPU
        (fields._run_blocks): the image series for rho = max|z| max|w_j| (or,
        when its K reaches N, the image term atom by atom), then minus
        (m_j/2) log|z - w_j|^2 over the atoms in order.  A node's operations
        are the same whatever the tiling, threads or mesh layout, but K and
        the route come from the whole query: a node's last bits depend on the
        other nodes asked with it (within the tail bound and rounding).
        """
        gx = np.asarray(gx, dtype=np.float64)
        gy = np.asarray(gy, dtype=np.float64)
        shape = np.broadcast_shapes(gx.shape, gy.shape)
        full = shape or (1,)
        # give both inputs the output's rank so each slices by output rows
        gx = gx.reshape((1,) * (len(full) - gx.ndim) + gx.shape)
        gy = gy.reshape((1,) * (len(full) - gy.ndim) + gy.shape)
        # max and min |z|^2 over the nodes, with no grid-sized array
        a, b = gx * gx, gy * gy
        hi, lo = _reduce_sum(a, b, np.max, 0.0), _reduce_sum(a, b, np.min, np.inf)
        w = self.measure.locations
        w_max = float(np.abs(w).max())
        rho = math.sqrt(hi) * w_max
        if not rho < 1.0:
            raise DomainError(f"image series needs max|z| max|w| < 1, got {rho}")
        if math.sqrt(lo) > w_max:
            order = _order(max(w_max / math.sqrt(lo), rho), w.size)
            if order < w.size:
                return self._laurent(gx, gy, self._moments(order)).reshape(shape)
        out = np.zeros(full)
        order = _order(rho, w.size)
        # None: the series would take N or more terms, so each atom adds its image term
        coef = self._moments(order) if order < w.size else None
        width = max(1, math.prod(full[1:]))
        # at most a 1/workers share of the rows, so a 1-D query splits too
        rows = max(1, min(_BLOCK // width, -(-full[0] // fields._workers())))
        starts = range(0, full[0], rows)
        chunk = max(1, min(w.size, _BLOCK // (rows * width)))
        # rows x, y and m/2 with the atoms along a leading broadcast axis
        atoms = np.stack([w.real, w.imag, 0.5 * self.measure.masses])
        atoms = atoms.reshape(atoms.shape + (1,) * len(full))

        @np.errstate(divide="ignore")  # per thread: errstate is context-local
        def tile(work: np.ndarray, start: int) -> None:
            o = out[start : start + rows]
            x = gx if gx.shape[0] == 1 else gx[start : start + rows]
            y = gy if gy.shape[0] == 1 else gy[start : start + rows]
            n = o.size
            if coef:
                # z and the Horner sum as complex tiles cut from work
                z, s = work[: 4 * n].view(np.complex128).reshape(2, n)
                z.reshape(o.shape).real[...] = x
                z.reshape(o.shape).imag[...] = y
                np.negative(_horner(z, coef, s).real.reshape(o.shape), out=o)
            for first in range(0, w.size, chunk):
                ar, ai, half_m = atoms[:, first : first + chunk]
                c = len(ar)
                # o, then the chunk's terms
                stack = work[: (c + 1) * n].reshape((c + 1,) + o.shape)
                term = stack[1:]
                dx = x - ar
                dy = y - ai
                np.add(dx * dx, dy * dy, out=term)
                np.log(term, out=term)
                if coef is None:
                    rr = 1.0 - x * ar - y * ai
                    ii = x * ai - y * ar
                    term -= np.log(rr * rr + ii * ii)
                np.multiply(half_m, term, out=term)
                # ((o - t_1) - t_2) - ..., atom after atom; np.sum would pair them
                if c == 1:  # the same sum, without the copy into stack
                    o -= term[0]
                else:
                    stack[0] = o
                    np.subtract.reduce(stack, axis=0, out=o)

        # a buffer per thread: tiles cut from its front are contiguous for
        # numpy's SIMD log (its strided loop can differ)
        fields._run_blocks(starts, lambda: np.empty(max(chunk + 1, 4) * rows * width), tile)
        return out.reshape(shape)

    def _moments(self, order: int) -> list:
        """C_1, ..., C_order, C_k = sum_j m_j conj(w_j)^k / k."""
        coef, power, conj = [], self.measure.masses, np.conj(self.measure.locations)
        for k in range(1, order + 1):
            power = power * conj
            coef.append(power.sum() / k)
        return coef

    def _laurent(self, gx: np.ndarray, gy: np.ndarray, coef: list) -> np.ndarray:
        """u off the atoms' disc: -M log|z| + Re sum_k (conj(C_k) z^-k - C_k z^k)."""
        r2 = gx * gx + gy * gy
        out = np.log(r2)
        out *= -0.5 * self.measure.total_mass()
        if coef:
            z = np.empty(r2.shape, np.complex128)
            z.real[...] = gx
            z.imag[...] = gy
            t = _horner(1.0 / z, np.conj(coef))
            t -= _horner(z, coef)
            out += t.real
        return out


def _horner(z: np.ndarray, coef, s: np.ndarray | None = None) -> np.ndarray:
    """sum_k coef[k-1] z^k, k = 1..len(coef), by Horner at each entry of a
    complex array z, into s when given (of z's shape).

    A lone node runs twice: numpy's one-element in-place product skips its
    fused multiply-add, so it would get other bits than among other nodes.
    """
    if z.size == 1:
        return _horner(np.repeat(z, 2), coef)[:1].reshape(z.shape)
    if s is None:
        s = np.empty_like(z)
    np.multiply(z, coef[-1], out=s)
    for c_k in coef[-2::-1]:
        s += c_k
        s *= z
    return s


def _reduce_sum(a: np.ndarray, b: np.ndarray, reduce, initial: float) -> float:
    """reduce(a + b) for a and b of one rank, each reduced first along the
    axes where the other has length 1, so a sparse mesh makes no grid."""
    a = reduce(a, tuple(d for d in range(a.ndim) if b.shape[d] == 1), keepdims=True, initial=initial)
    b = reduce(b, tuple(d for d in range(b.ndim) if a.shape[d] == 1), keepdims=True, initial=initial)
    return float(reduce(a + b, initial=initial))


def _order(rho: float, n: int) -> int:
    """Least K < n with rho^(K+1) / ((K+1)(1 - rho)) < _TAIL, else n: at most
    n steps, where an uncapped count takes about 1/(1 - rho)."""
    return next((k for k in range(n) if rho ** (k + 1) < _TAIL * (k + 1) * (1.0 - rho)), n)


def potential_field(potential: GreenPotential, spacing: float) -> DiscField:
    """Sample the potential on the square grid covering the unit disc."""

    def fn(gx, gy):
        vals = potential.grid_values(gx, gy)
        vals[np.hypot(gx, gy) > 1.0] = np.nan
        return vals

    return DiscField.from_function(spacing, fn)


# -- flux recovery of the measure -------------------------------------------


def disc_mass_recovery(potential: GreenPotential) -> float:
    """Recovered total mass from the radial flux through |z| = 0.9: a central
    difference of step 1e-3 across the circle at 2048 midpoint angles."""
    radius, n_samples, fd_step = 0.9, 2048, 1e-3
    theta = 2.0 * math.pi * (np.arange(n_samples) + 0.5) / n_samples
    cx, cy = np.cos(theta), np.sin(theta)
    up = potential.grid_values((radius + fd_step) * cx, (radius + fd_step) * cy)
    dn = potential.grid_values((radius - fd_step) * cx, (radius - fd_step) * cy)
    deriv = (up - dn) / (2.0 * fd_step)
    flux = float(math.fsum(deriv)) * (2.0 * math.pi * radius / n_samples)
    return -flux / (2.0 * math.pi)


# -- dimension and regularity probes ----------------------------------------


@dataclass(frozen=True)
class BoxCountRegression:
    """Least-squares slope of log N(scale) against log(1/scale)."""

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float


def box_dimension(columns, scales) -> BoxCountRegression:
    """Count occupied axis boxes per scale and regress the dimension.

    columns holds the d coordinate columns as float arrays that broadcast
    together, the way grid_values takes sparse meshes: the points are the
    entries of their broadcast shape, so (zx[:, None], zy[:, None], wx, wy)
    is N circles of A points without N * A copies of z, and the rows of a
    (d, N) array such as centers().T are N dense points.  Each scale
    partitions space into a grid of closed-open boxes anchored at the
    pointwise minimum corner, so dyadic scale chains nest against the set
    rather than against an arbitrary origin.

    Scales are counted finest first.  Where s_c = s_f * 2^j exactly for the
    last scale s_f counted, s_c's cells are s_f's shifted right by j: x /
    (s_f 2^j) equals (x / s_f) / 2^j in binary floating point, and
    floor(floor(y) / 2^j) = floor(y / 2^j).  Other scales, and every scale
    of a call with an x < 0 that x / s_c underflows to -0.0, are built from
    the columns.  A scale with a cell id of 2^52 or more, which float64 may
    round, is rejected.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    try:
        shape = np.broadcast_shapes(*(c.shape for c in cols)) or (1,)
    except ValueError:
        raise ParameterError("coordinate columns must broadcast together") from None
    if not cols or not math.prod(shape):
        raise ParameterError("points must be nonempty: d >= 1 columns of at least one point")
    scales = tuple(float(s) for s in scales)
    if len(scales) < 5:
        raise ParameterError("dimension regression needs at least 5 scales")
    if any(s <= 0.0 for s in scales):
        raise ParameterError("scales must be positive")
    # give every column the points' rank, so each slices by leading rows;
    # broadcasting repeats entries only, so every entry is some point's
    cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
    lo = np.array([c.min() for c in cols])
    hi = np.array([c.max() for c in cols])
    # min and max propagate NaN, and an infinite point makes one of them infinite
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ParameterError("points must be finite")
    d = len(cols)
    width = 63 // d
    # x / s_c of a point in (-t, 0) may underflow to -0.0 while x / s_f stays
    # negative: then no scale derives
    t = max(scales) * 2.0**-1022
    blocks = (f[k : k + _BLOCK] for f in map(np.ravel, cols) for k in range(0, f.size, _BLOCK))
    tiny = any(np.any((b < 0.0) & (b > -t)) for b in blocks)
    bases = []
    for s in scales:
        # floor(x / s) is monotone in x, so floor(lo / s) is the smallest
        # cell id per column; offsetting by it is a bijection on cells, so
        # the occupied-box count is unchanged and keys pack into one word
        base, top = np.floor(lo / s), np.floor(hi / s)
        if np.any(top - base >= 2.0**width):
            raise ParameterError(f"scale {s} too fine for the point spread")
        # below 2^52 every float64 cell id x / s, and every offset id, is exact
        if np.any(np.maximum(-base, top) >= 2.0**52):
            raise ParameterError(f"scale {s} too fine for the point coordinates")
        bases.append(base)
    key = np.empty(math.prod(shape), dtype=np.uint64)
    row = math.prod(shape[1:])  # keys per leading row
    rows = max(1, _BLOCK // row)
    counts = [0] * len(scales)
    fine = None
    for i in sorted(range(len(scales)), key=scales.__getitem__):
        s, base = scales[i], bases[i]
        j = 0 if fine is None else math.frexp(s)[1] - math.frexp(scales[fine])[1]
        derive = fine is not None and not tiny and math.ldexp(scales[fine], j) == s
        # keys about _BLOCK at a time: from the distinct keys of s_f, or
        # from the columns' leading rows, broadcast into the key chunk
        if derive:
            chunks = [(key[at : at + _BLOCK], at) for at in range(0, n, _BLOCK)]
        else:
            n = key.size
            chunks = [
                (key[at * row : (at + rows) * row].reshape((-1,) + shape[1:]), at)
                for at in range(0, shape[0], rows)
            ]
        for k, at in chunks:
            packed = k.copy() if derive else None
            k.fill(0)
            for c, (col, b) in enumerate(zip(cols, base)):
                if derive:
                    cell = ((packed >> width * (d - 1 - c)) & ((1 << width) - 1)).view(np.int64)
                    cell = ((cell + int(bases[fine][c])) >> min(j, 63)) - int(b)
                else:
                    cell = (col if len(col) == 1 else col[at : at + rows]) / s
                    np.floor(cell, out=cell)
                    cell -= b
                k <<= width
                k |= cell.astype(np.uint64)
        # sort and count runs: numpy's unique hashes integer keys, several times slower
        run = key[:n]
        run.sort()
        # each run's first key to the front, a chunk at a time: writes trail reads
        n = 1
        for start in range(1, run.size, _BLOCK):
            new = run[start : start + _BLOCK]
            new = new[new != run[start - 1 : start - 1 + new.size]]
            run[n : n + new.size] = new
            n += new.size
        counts[i], fine = n, i
    slope = float(
        np.polyfit(np.log(1.0 / np.array(scales)), np.log(np.array(counts)), 1)[0]
    )
    return BoxCountRegression(scales=scales, counts=tuple(counts), slope=slope)


def graph_set_points(
    square_set: SquareCantor,
    potential: GreenPotential,
    n_angles: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample the boundary graph {(z, w): z in E, |w| = exp(phi(z))} in R^4.

    phi = (1/2) log(1 - |z|^2) - u(z); one circle of n_angles points per
    square, returned as the coordinate columns (zx, zy, wx, wy) of shapes
    (N, 1), (N, 1), (N, n_angles), (N, n_angles) that box_dimension takes:
    point (i, k) is corner i with angle k.  The z samples are the
    lower-left square corners: corners persist through the subdivision so
    they lie in the limit set exactly, and they keep half a diagonal away
    from the atoms, so u stays finite there (at the atom centers
    themselves u = +inf and the circles would collapse).
    """
    corners = np.asarray(square_set.squares, dtype=np.float64)
    zx = corners[:, 0]
    zy = corners[:, 1]
    u = potential.grid_values(zx, zy)
    phi = 0.5 * np.log1p(-(zx**2 + zy**2)) - u
    r = np.exp(phi)
    theta = 2.0 * math.pi * np.arange(n_angles) / n_angles
    wx = r[:, None] * np.cos(theta)[None, :]
    wy = r[:, None] * np.sin(theta)[None, :]
    return zx[:, None], zy[:, None], wx, wy


def zygmund_seminorm(
    u: DiscField,
    alpha: float,
    budget: int = 4000,
    seed: int = 0,
) -> float:
    """Empirical M = max |u(x+h) + u(x-h) - 2u(x)| / ||h||^alpha.

    Random base points in |x| <= 0.8 with random offsets of
    length in [4 * grid spacing, 0.1]; deterministic for a fixed seed.
    Displacements below four cells would measure interpolation error
    rather than the field.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    if budget < 1:
        raise ParameterError("sample budget must be positive")
    lo = 4.0 * u.spacing
    hi = 0.1
    if lo >= hi:
        raise ParameterError("grid too coarse: 4h must stay below the 0.1 offset cap")
    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = 1024
    remaining = budget
    while remaining > 0:
        k = min(chunk, remaining)
        remaining -= k
        rad = 0.8 * np.sqrt(rng.random(k))
        ang = 2.0 * math.pi * rng.random(k)
        x = rad * np.cos(ang)
        y = rad * np.sin(ang)
        hlen = np.exp(rng.uniform(math.log(lo), math.log(hi), k))
        hang = 2.0 * math.pi * rng.random(k)
        hx = hlen * np.cos(hang)
        hy = hlen * np.sin(hang)
        second = u.sample(x + hx, y + hy) + u.sample(x - hx, y - hy) - 2.0 * u.sample(x, y)
        finite = np.isfinite(second)
        if finite.any():
            best = max(best, float(np.max(np.abs(second[finite]) / hlen[finite] ** alpha)))
    return best


def zygmund_domain(
    alpha: float,
    n: int,
    spacing: float = 1.0 / 256.0,
) -> HartogsDomain:
    """Hartogs-type cap phi = (1/2) log(1 - |z|^2) - u(z).

    The cap is strictly superharmonic away from the support of the
    measure (u harmonic there, ball term at most -2), while at atom
    cells the singular part of -Delta u = +mu wins, so a Laplacian scan
    flags nodes only near the Cantor squares.
    """
    pot = GreenPotential(frostman_measure(build_square_cantor(alpha, n)))

    def cap_values(gx, gy):
        return _ball_cap_values(gx, gy) - pot.grid_values(gx, gy)

    return HartogsDomain(cap=DiscField.from_function(spacing, cap_values), kind="cantor")
