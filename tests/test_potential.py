"""Tests for the Cantor-set / Green-potential chain.

Frozen oracle values: contraction ratios evaluate 4^(-1/alpha) directly;
box counts of the aligned construction are exact powers of four; the
single-atom potential is -log|z| in closed form; flux recovery and growth
constants are pinned from an independent run of the same deterministic
pipeline and guarded here against drift.
"""

import concurrent.futures
import contextlib
import dataclasses
import itertools
import math
import os
import re
import signal
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from helpers_disc import disc_inside
from levicheck import fields as fields_module
from levicheck import potential as potential_module
from levicheck.fields import DiscField, DomainError, ParameterError
from levicheck.potential import (
    AtomicMeasure,
    BoxCountRegression,
    FrostmanCertificate,
    GreenPotential,
    box_dimension,
    build_square_cantor,
    contraction_ratio,
    disc_mass_recovery,
    frostman_certificate,
    frostman_measure,
    graph_set_points,
    potential_field,
    zygmund_domain,
    zygmund_seminorm,
)
from levicheck.staircase import subharmonicity_scan

A_THREE_HALVES = 0.3968502629920499
U5_AT_ZERO = 0.9919134445786028
GRAPH_SLOPE_PIN = 1.9000366685595318
GROWTH_CONSTANTS = {4: 1.1328125, 5: 1.13671875, 6: 1.138671875}


def tuple_squares(alpha, n):
    """The tuple-of-tuples corners SquareCantor held before it held an array."""
    a = contraction_ratio(alpha)
    side = 0.7
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
    return tuple((float(x), float(y)) for x, y in corners)


def direct_grid_values(potential, gx, gy):
    """Reference sum, one whole-array pass per atom, the whole kernel per
    term: grid_values must stay within ORACLE_BOUND of it."""
    out = np.zeros(np.broadcast(gx, gy).shape, dtype=np.float64)
    for w, m in zip(potential.measure.locations, potential.measure.masses):
        dx = gx - w.real
        dy = gy - w.imag
        num2 = dx * dx + dy * dy
        rr = 1.0 - gx * w.real - gy * w.imag
        ii = gx * w.imag - gy * w.real
        den2 = rr * rr + ii * ii
        with np.errstate(divide="ignore"):
            out -= 0.5 * m * (np.log(num2) - np.log(den2))
    return out


def box_count_oracle(pts, s):
    return len({tuple(r) for r in np.floor(pts / s)})


def stacked(columns):
    """The (N, d) points of coordinate columns that broadcast together, in
    the broadcast shape's order (a 0-d shape holds one point)."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    return np.column_stack([np.broadcast_to(c, shape).ravel() for c in columns])


@pytest.fixture(scope="module")
def gen5():
    square_set = build_square_cantor(1.0, 5)
    measure = frostman_measure(square_set)
    return square_set, measure, GreenPotential(measure)


@pytest.fixture(scope="module")
def gen4_field():
    measure = frostman_measure(build_square_cantor(1.0, 4))
    return potential_field(GreenPotential(measure), 1.0 / 512.0)


@pytest.fixture(scope="module")
def cantor_scan():
    cap = zygmund_domain(1.0, 4, spacing=1.0 / 256.0)
    return cap, subharmonicity_scan(cap)


class TestContractionRatio:
    def test_alpha_one_is_exact_quarter(self):
        assert contraction_ratio(1.0) == 0.25

    def test_alpha_three_halves(self):
        a = contraction_ratio(1.5)
        assert abs(a - 0.39685) <= 1e-5
        assert abs(a - A_THREE_HALVES) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 2.0, 2.5])
    def test_out_of_range_alpha_rejected(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            contraction_ratio(alpha)


class TestSquareCantor:
    def test_square_count_is_four_to_the_n(self):
        for n in (1, 2, 3, 4):
            assert len(build_square_cantor(1.0, n).squares) == 4**n

    def test_side_ratio_exact_across_generations(self):
        a = contraction_ratio(1.3)
        prev = build_square_cantor(1.3, 1)
        for n in (2, 3, 4):
            cur = build_square_cantor(1.3, n)
            assert abs(cur.side / prev.side - a) <= 1e-15
            prev = cur

    def test_contained_in_closed_half_disc(self):
        sc = build_square_cantor(1.9, 4)
        corners = np.asarray(sc.squares)
        for dx in (0.0, sc.side):
            for dy in (0.0, sc.side):
                r = np.hypot(corners[:, 0] + dx, corners[:, 1] + dy)
                assert r.max() <= 0.5 + 1e-12

    def test_centered_at_origin(self):
        c = build_square_cantor(0.8, 3).centers()
        lo = c.min(axis=0)
        hi = c.max(axis=0)
        assert np.abs(lo + hi).max() <= 1e-12

    def test_squares_pairwise_disjoint(self):
        sc = build_square_cantor(1.7, 3)
        c = np.asarray(sc.squares)
        gap_x = np.abs(c[:, None, 0] - c[None, :, 0])
        gap_y = np.abs(c[:, None, 1] - c[None, :, 1])
        sep = np.maximum(gap_x, gap_y)
        np.fill_diagonal(sep, np.inf)
        assert sep.min() > sc.side

    def test_generation_and_budget_guards(self):
        with pytest.raises(ParameterError, match="generation"):
            build_square_cantor(1.0, 0)
        with pytest.raises(ParameterError, match="budget"):
            build_square_cantor(1.0, 11)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.9])
    def test_squares_are_read_only_array_of_tuple_corners(self, alpha):
        for n in range(1, 7):
            sc = build_square_cantor(alpha, n)
            assert sc.squares.shape == (4**n, 2)
            assert sc.squares.dtype == np.float64
            assert not sc.squares.flags.writeable
            ref = np.array(tuple_squares(alpha, n), dtype=np.float64)
            assert np.array_equal(sc.squares.view(np.uint64), ref.view(np.uint64))
        with pytest.raises(ValueError, match="read-only"):
            sc.squares[0, 0] = 0.0


class TestAtomicMeasure:
    def test_total_mass_exactly_one(self, gen5):
        _, measure, _ = gen5
        assert measure.total_mass() == 1.0

    def test_atom_masses_are_four_to_minus_n(self, gen5):
        _, measure, _ = gen5
        assert np.all(measure.masses == 4.0**-5)

    def test_refinement_restricted_mass_exact(self):
        for n in (1, 2, 3):
            parent = build_square_cantor(1.0, n)
            child = frostman_measure(build_square_cantor(1.0, n + 1))
            x, y = parent.squares[0]
            w = child.locations
            inside = (w.real > x) & (w.real < x + parent.side) & (w.imag > y) & (w.imag < y + parent.side)
            assert math.fsum(child.masses[inside]) == 4.0**-n

    def test_full_diameter_disc_carries_all_mass(self, gen5):
        square_set, measure, _ = gen5
        c = square_set.centers()
        r = float(np.hypot(*(c.max(axis=0) - c.min(axis=0) + square_set.side)))
        mass = math.fsum(measure.masses[np.abs(measure.locations) < r])
        assert mass == 1.0
        assert mass / r**1.0 <= r**-1.0

    @pytest.mark.parametrize(
        "locations, masses, match",
        [
            ([], [], "at least one atom"),
            ([0j, 0.1], [0.5], "at least one atom"),
            ([[0j]], [[1.0]], "at least one atom"),
            ([0j, 0.1], [-1.0, 2.0], "masses must lie in"),
            ([0j, 0.1], [math.nan, 1.0], "masses must lie in"),
            ([0j, 0.1], [0.5, math.inf], "masses must lie in"),
            ([0j, 0.1], [1e308, 1e308], "masses must lie in"),
            ([complex(math.nan, 0.0)], [1.0], "open unit disc"),
            ([complex(math.inf, 0.0)], [1.0], "open unit disc"),
            ([1.5], [1.0], "open unit disc"),
            ([1.0j], [1.0], "open unit disc"),
            ([0j, 0.1], [0.5, 0.6], "total mass"),
            ([0j, 0.1], [0.5, 0.4], "total mass"),
        ],
    )
    def test_invalid_measures_rejected(self, locations, masses, match):
        with pytest.raises(ParameterError, match=match):
            AtomicMeasure(locations=locations, masses=masses)

    def test_arrays_read_only_copies(self, gen5):
        _, measure, _ = gen5
        assert measure.locations.dtype == np.complex128 and measure.masses.dtype == np.float64
        for array in (measure.locations, measure.masses):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            measure.masses[0] = 1.0
        masses = np.array([0.25, 0.75])
        AtomicMeasure(locations=[0j, 0.5], masses=masses)
        assert masses.flags.writeable


# -- oracle: the scalar Green kernel and the per-atom fsum loop that
# GreenPotential.__call__ ran before it became a 0-d grid_values call, kept
# verbatim (the loop reads the two arrays where it read (w, m) pairs)


def green_kernel(z: complex, w: complex) -> float:
    """-log|(z - w)/(1 - z conj(w))|: symmetric in (z, w), nonnegative on
    the open disc, zero when either argument reaches the circle."""
    z = complex(z)
    w = complex(w)
    num = abs(z - w)
    den = abs(1.0 - z * np.conjugate(w))
    if den == 0.0:
        raise DomainError(f"kernel pole at z = {z}, w = {w}")
    if num == 0.0:
        return math.inf
    return -math.log(num / den)


def scalar_potential(measure, z: complex) -> float:
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"potential evaluated outside the closed disc: {z}")
    total = []
    for w, m in zip(measure.locations.tolist(), measure.masses.tolist()):
        term = green_kernel(z, w)
        if math.isinf(term):
            return math.inf
        total.append(m * term)
    return float(math.fsum(total))


def single_atom(w):
    return GreenPotential(AtomicMeasure(locations=[w], masses=[1.0]))


class TestScalarKernelOracle:
    """grid_values and __call__, the one kernel, against the scalar kernel."""

    @pytest.mark.parametrize("which", ["cantor", "random"])
    def test_agree_at_seeded_points(self, which):
        rng = np.random.default_rng(11)
        if which == "cantor":
            measure = frostman_measure(build_square_cantor(1.3, 3))
        else:
            locs = 0.9 * np.sqrt(rng.random(40)) * np.exp(2j * math.pi * rng.random(40))
            weights = rng.uniform(0.1, 1.0, 40)
            measure = AtomicMeasure(locations=locs, masses=weights / weights.sum())
        pot = GreenPotential(measure)
        radius = np.sqrt(rng.random(300))
        z = radius * np.exp(2j * math.pi * rng.random(300))
        want = np.array([scalar_potential(measure, w) for w in z])
        grid = pot.grid_values(z.real, z.imag)
        called = np.array([pot(w) for w in z])
        bound = 1e-12 * (1.0 + np.abs(want))
        assert np.all(np.abs(grid - want) <= bound)
        assert np.all(np.abs(called - want) <= bound)

    def test_infinite_at_an_atom(self):
        measure = frostman_measure(build_square_cantor(1.0, 3))
        pot = GreenPotential(measure)
        w = measure.locations[5]
        assert scalar_potential(measure, w) == math.inf
        assert pot(w) == math.inf
        assert pot.grid_values(w.real, w.imag) == np.inf

    def test_scalar_call_is_python_float(self):
        assert type(single_atom(0j)(0.5)) is float


class TestGreenKernel:
    """Kernel properties, read through single-atom potentials."""

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rz, tz, rw, tw = rng.random(4)
            z = 0.95 * rz * np.exp(2j * math.pi * tz)
            w = 0.95 * rw * np.exp(2j * math.pi * tw)
            assert abs(single_atom(w)(z) - single_atom(z)(w)) <= 1e-12

    @given(
        st.floats(0.0, 0.9),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.9),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_inside_disc(self, rz, tz, rw, tw):
        z = rz * np.exp(2j * math.pi * tz)
        w = rw * np.exp(2j * math.pi * tw)
        if abs(z - w) > 0:
            assert single_atom(w)(z) >= -1e-12

    def test_atom_hit_is_flagged_infinite(self):
        assert math.isinf(single_atom(0.3 + 0.1j)(0.3 + 0.1j))

    def test_pole_outside_disc_raises(self):
        # the pole of an atom at w sits at 1/conj(w), outside the closed disc
        with pytest.raises(DomainError, match="disc"):
            single_atom(0.5 + 0j)(2.0 + 0j)


class TestGreenPotential:
    def test_single_atom_closed_form(self):
        u = single_atom(0j)
        assert u(0.5 + 0j) == 0.6931471805599453
        assert abs(u(0.5 + 0j) - math.log(2.0)) <= 1e-12
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = 0.9 * rng.random() * np.exp(2j * math.pi * rng.random())
            if abs(z) > 1e-6:
                assert abs(u(z) + math.log(abs(z))) <= 1e-12

    def test_atom_hit_returns_flagged_infinity(self, gen5):
        _, measure, potential = gen5
        assert math.isinf(potential(measure.locations[7]))

    def test_outside_disc_rejected(self, gen5):
        _, _, potential = gen5
        with pytest.raises(DomainError, match="disc"):
            potential(1.5 + 0j)

    def test_boundary_vanishing_512_samples(self, gen5):
        _, _, potential = gen5
        theta = 2.0 * math.pi * np.arange(512) / 512
        vals = potential.grid_values(np.cos(theta), np.sin(theta))
        assert np.abs(vals).max() <= 1e-10

    def test_value_at_origin_matches_direct_sum(self, gen5):
        _, measure, potential = gen5
        atoms = zip(measure.locations.tolist(), measure.masses.tolist())
        oracle = -math.fsum(m * math.log(abs(w)) for w, m in atoms)
        val = potential(0j)
        assert val > 0.0
        assert abs(val - oracle) <= 1e-12
        assert abs(val - U5_AT_ZERO) <= 1e-12

    def test_nonnegative_on_grid(self, gen5):
        _, _, potential = gen5
        field = potential_field(potential, 1.0 / 128.0)
        inside = field.values[disc_inside(field)]
        assert np.nanmin(inside) >= -1e-12


# atoms on the 1/64 lattice in |w| <= 1/2, so grid coordinates can hit them
_LATTICE_ATOM = st.tuples(st.integers(-22, 22), st.integers(-22, 22)).filter(
    lambda ij: ij[0] ** 2 + ij[1] ** 2 <= 32**2
)
# on the unit circle and on lattice nodes there
_CIRCLE_COORDS = [-1.0, 0.0, 1.0]


# |grid_values - direct_grid_values| <= ORACLE_BOUND * (1 + |u|) at finite
# nodes: the image series' tail is below 1e-17, and the split moves the
# rounding only (measured 2.4e-15 on the generation-4 cap grid)
ORACLE_BOUND = 1e-13


def assert_near_oracle(got, pot, gx, gy):
    want = direct_grid_values(pot, gx, gy)
    assert got.shape == want.shape
    inf = np.isinf(want)
    assert np.array_equal(got == np.inf, inf)
    assert np.all(np.abs(got[~inf] - want[~inf]) <= ORACLE_BOUND * (1.0 + np.abs(want[~inf])))


def one_thread_points(pot, gx, gy):
    """grid_values on one thread over the nodes as a 1-D list of points,
    shaped like the mesh: the layout and tiling every other call must match."""
    bx, by = np.broadcast_arrays(gx, gy)
    with with_workers(1):
        return pot.grid_values(bx.ravel(), by.ravel()).reshape(bx.shape)


def with_workers(count):
    """Patch the thread count every block pass reads from the CPU affinity."""
    return mock.patch.object(fields_module, "_workers", lambda: count)


def counting_blocks():
    """Count the block passes: a query that takes the tiles makes one."""
    return mock.patch.object(fields_module, "_run_blocks", wraps=fields_module._run_blocks)


def takes_far_route(pot, gx, gy):
    """The far-route rule grid_values documents, from the nodes and atoms."""
    r2 = np.asarray(gx * gx + gy * gy)
    w_max = float(np.abs(pot.measure.locations).max())
    if not math.sqrt(r2.min()) > w_max:
        return False
    rho = max(w_max / math.sqrt(r2.min()), math.sqrt(r2.max()) * w_max)
    tail = potential_module._TAIL
    return any(rho ** (k + 1) < tail * (k + 1) * (1.0 - rho) for k in range(len(pot.measure.locations)))


@contextlib.contextmanager
def within_seconds(seconds):
    """Raise TimeoutError in the body after seconds, so a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


_WORKERS = [1, 2, 3, 5]


class TestGridValuesBlocked:
    """The kernel's two routes. Tiles, threaded: bit for bit the same
    whatever the tile size, the thread count and the mesh layout. The
    series alone, for nodes far from the atoms: no tiles. Both within
    ORACLE_BOUND of the per-atom whole-array oracle."""

    @given(
        lattice=st.lists(_LATTICE_ATOM, min_size=1, max_size=12, unique=True),
        weights=st.lists(st.floats(0.1, 1.0), min_size=12, max_size=12),
        kind=st.sampled_from(["full", "sparse", "points", "far"]),
        padding=st.sampled_from([0, 150]),
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        block=st.sampled_from([7, 64, 1000, potential_module._BLOCK]),
        workers=st.sampled_from(_WORKERS),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_independent_of_tiles_threads_and_mesh(
        self, lattice, weights, kind, padding, rows, cols, block, workers, seed
    ):
        rng = np.random.default_rng(seed)
        # 150 more atoms take N past the image series' K (at most 142 here,
        # where max|z| max|w| <= 0.78), so the tiles sum the series; 12 atoms
        # or fewer add each atom's image term instead
        locs = [complex(i / 64.0, j / 64.0) for i, j in lattice]
        locs += list(0.3 * np.sqrt(rng.random(padding)) * np.exp(2j * math.pi * rng.random(padding)))
        w = np.concatenate([weights[: len(lattice)], rng.uniform(0.1, 1.0, padding)])
        w /= w.sum()
        pot = GreenPotential(AtomicMeasure(locations=locs, masses=w))
        hit = locs[0]
        xs = np.concatenate([rng.uniform(-1.1, 1.1, rows), _CIRCLE_COORDS, [hit.real]])
        ys = np.concatenate([rng.uniform(-1.1, 1.1, cols), _CIRCLE_COORDS, [hit.imag]])
        rng.shuffle(xs)
        rng.shuffle(ys)
        if kind == "far":
            # rows x cols nodes in 0.95 <= |z| <= 1, one on the circle: outside
            # every atom, and the series when N > K (K is 55 at |w| = 1/2)
            radius = rng.uniform(0.95, 1.0, (rows, cols))
            radius[0, 0] = 1.0
            theta = rng.uniform(0.0, 2.0 * math.pi, (rows, cols))
            gx, gy = radius * np.cos(theta), radius * np.sin(theta)
        elif kind == "points":
            gx, gy = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
        else:
            gx, gy = np.meshgrid(xs, ys, indexing="ij", sparse=kind == "sparse")
        with mock.patch.object(potential_module, "_BLOCK", block), with_workers(workers):
            with counting_blocks() as blocks:
                got = pot.grid_values(gx, gy)
        assert blocks.called != takes_far_route(pot, gx, gy)
        assert_bitwise(got, one_thread_points(pot, gx, gy))
        assert_near_oracle(got, pot, gx, gy)
        assert got.shape == np.broadcast_shapes(gx.shape, gy.shape)
        assert np.any(got == np.inf) == (kind != "far")

    @pytest.mark.parametrize("workers", _WORKERS)
    @pytest.mark.parametrize("block", [20, 60])
    def test_partial_atom_chunks(self, workers, block):
        # 13 atoms against 10 points: for 1, 2, 3 and 5 threads a chunk holds
        # 2, 4, 5 and 10 atoms at 20 pairs per tile, and 6, 12, 13 and 13 at
        # 60, so the last chunk is partial unless one chunk takes them all
        rng = np.random.default_rng(block + workers)
        locs = rng.uniform(-0.3, 0.3, 13) + 1j * rng.uniform(-0.3, 0.3, 13)
        pot = GreenPotential(AtomicMeasure(locs, np.full(13, 1.0 / 13)))
        px, py = rng.uniform(-0.9, 0.9, (2, 10))
        gx, gy = np.meshgrid(px, py[:3], indexing="ij", sparse=True)
        with mock.patch.object(potential_module, "_BLOCK", block), with_workers(workers):
            points = pot.grid_values(px, py)
            mesh = pot.grid_values(gx, gy)
        with with_workers(1):
            assert_bitwise(points, pot.grid_values(px, py))
        assert_bitwise(mesh, one_thread_points(pot, gx, gy))
        assert_near_oracle(points, pot, px, py)
        assert_near_oracle(mesh, pot, gx, gy)

    @pytest.mark.parametrize("workers", _WORKERS)
    def test_more_threads_than_row_blocks(self, workers):
        # two output rows give at most two row blocks whatever the count
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 2)))
        gx, gy = np.meshgrid([0.1, -0.6], np.linspace(-0.9, 0.9, 7), indexing="ij")
        with with_workers(workers), mock.patch.object(
            concurrent.futures, "ThreadPoolExecutor", wraps=concurrent.futures.ThreadPoolExecutor
        ) as pool:
            got = pot.grid_values(gx, gy)
        assert_bitwise(got, one_thread_points(pot, gx, gy))
        assert_near_oracle(got, pot, gx, gy)
        # the caller runs one of the two shares; one share starts no pool
        assert pool.call_args_list == ([mock.call(1)] if workers > 1 else [])

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_threads_keep_their_own_buffers(self, workers):
        # 300 rows give five blocks, so up to five threads, more than the
        # cores of a small box; a short switch interval interleaves them at
        # every few bytecodes, so a buffer two threads shared would mix tiles.
        # Nodes within |z| <= 0.85 keep the image series' K (40) below the 64
        # atoms, so the series' complex tiles share the buffers too
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 3)))
        coords = np.linspace(-0.6, 0.6, 300)
        gx, gy = np.meshgrid(coords, coords, indexing="ij", sparse=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with with_workers(workers):
                got = pot.grid_values(gx, gy)
        finally:
            sys.setswitchinterval(interval)
        assert_bitwise(got, one_thread_points(pot, gx, gy))

    @pytest.mark.parametrize("workers", _WORKERS)
    def test_lengths_off_the_block(self, workers):
        # 1-D queries and a 517-wide grid whose lengths are no multiple of
        # the real block (126 rows of 517 nodes), so the last block is partial
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 2)))
        rng = np.random.default_rng(5)
        n = 2 * potential_module._BLOCK + 123
        px, py = rng.uniform(-1.0, 1.0, (2, n))
        coords = (np.arange(517) - 258) / 256.0
        gx, gy = np.meshgrid(coords[:150], coords, indexing="ij", sparse=True)
        with with_workers(workers):
            points = pot.grid_values(px, py)
            grid = pot.grid_values(gx, gy)
        assert_bitwise(points, one_thread_points(pot, px, py))
        assert_near_oracle(points, pot, px, py)
        assert grid.shape == (150, 517)
        assert_bitwise(grid, one_thread_points(pot, gx, gy))
        assert_near_oracle(grid, pot, gx, gy)

    def test_atom_node_infinite_and_circle_nodes_near_zero(self):
        # 64 atoms against the image series' 49 terms: the tiles sum the series
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 3)))
        w = pot.measure.locations[3]
        gx = np.array([w.real, 1.0, 0.0, -1.0, 0.0])
        gy = np.array([w.imag, 0.0, 1.0, 0.0, -1.0])
        vals = pot.grid_values(gx, gy)
        assert vals[0] == np.inf
        # the oracle's exact +0.0 there is now the free-space sum plus the
        # image series, which cancel to rounding
        assert np.all(np.abs(vals[1:]) <= ORACLE_BOUND)

    def test_image_series_at_rho_nine_tenths(self):
        # atoms out to |w| = 0.9 against nodes on and inside the circle: rho =
        # 0.9 takes the series to 338 terms, fewer than the 400 atoms, so the
        # circle takes the far route and the inside nodes the tiles' series
        rng = np.random.default_rng(9)
        locs = 0.9 * np.sqrt(rng.random(400)) * np.exp(2j * math.pi * rng.random(400))
        locs[0] = 0.9j
        weights = rng.uniform(0.1, 1.0, 400)
        pot = GreenPotential(AtomicMeasure(locs, weights / weights.sum()))
        theta = 2.0 * math.pi * np.arange(1000) / 1000
        circle = pot.grid_values(np.cos(theta), np.sin(theta))
        assert np.all(np.abs(circle) <= ORACLE_BOUND)
        radius = np.sqrt(rng.random(2000))
        z = radius * np.exp(2j * math.pi * rng.random(2000))
        for workers in _WORKERS:
            with with_workers(workers):
                inside = pot.grid_values(z.real, z.imag)
            assert_near_oracle(inside, pot, z.real, z.imag)

    @pytest.mark.parametrize("point", [(2.0, 0.0), (0.0, -2.5), (1.5, 1.5), (math.nan, 0.0)])
    def test_rho_from_one_up_is_rejected_before_any_work(self, point):
        # an atom at 1/2: max|z| max|w| >= 1 for every node set holding the point
        pot = GreenPotential(AtomicMeasure([0.5, -0.25j], [0.5, 0.5]))
        gx = np.array([0.1, point[0]])[:, None]
        gy = np.array([0.0, point[1], 0.3])[None, :]
        with mock.patch.object(fields_module, "_run_blocks") as blocks:
            with pytest.raises(DomainError, match=re.escape("max|z| max|w| < 1")):
                pot.grid_values(gx, gy)
        blocks.assert_not_called()

    def test_sparse_cap_grid_within_the_buffers(self):
        # the generation-4 cap grid at spacing 1/256 on two threads: the
        # output, each thread's (3c + 1) x tile floats at c = 1 and 256 KiB a
        # thread of small temporaries (the direct sum already takes about
        # 150 KiB); a tile-sized complex array would add 1 MiB a thread
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 4)))
        coords = (np.arange(517) - 258) / 256.0
        gx, gy = np.meshgrid(coords, coords, indexing="ij", sparse=True)
        rows = potential_module._BLOCK // 517
        with with_workers(2):
            pot.grid_values(gx, gy)  # the first threaded call imports the pool's module
            tracemalloc.start()
            try:
                vals = pot.grid_values(gx, gy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert vals.shape == (517, 517)
        assert peak <= vals.nbytes + 2 * (4 * rows * 517 * 8 + 2**18)

    def test_one_node_tiles_match_longer_tiles(self):
        # at one pair a tile every tile holds one node, as in a 0-d call.
        # Generic coordinates: the image series' complex products round
        # differently with and without a fused multiply-add, and over 400
        # nodes that reaches the last bit of a few values of u. The series
        # takes 75 terms, fewer than the 256 atoms
        pot = GreenPotential(frostman_measure(build_square_cantor(1.3, 4)))
        rng = np.random.default_rng(17)
        px, py = rng.uniform(-0.9, 0.9, (2, 400))
        with with_workers(1):
            want = pot.grid_values(px, py)
            with mock.patch.object(potential_module, "_BLOCK", 1):
                assert_bitwise(pot.grid_values(px, py), want)
        assert_near_oracle(want, pot, px, py)

    @pytest.mark.parametrize("workers", _WORKERS)
    def test_scalar_inputs_give_zero_dim_array(self, workers):
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 3)))
        with with_workers(workers):
            # the same node in a 9-node query of the same max|z|, so the same
            # K; both on the tiles (|z| = 0.5 is too near the atoms for the
            # far route), so the same operations
            with counting_blocks() as blocks:
                val = pot.grid_values(0.5, 0.0)
                row = pot.grid_values(np.linspace(0.5, -0.5, 9), 0.0)
            empty = pot.grid_values(np.zeros((0, 3)), 0.0)
        assert blocks.call_count == 2
        assert isinstance(val, np.ndarray) and val.shape == ()
        assert_bitwise(val, row[0])
        assert_near_oracle(val, pot, 0.5, 0.0)
        assert empty.shape == (0, 3)

    def test_far_queries_run_no_tiles(self):
        # the flux and boundary circles of a generation-4 measure (max|w| =
        # 0.49) take the series on the calling thread; a cap grid holds the
        # origin, so it takes the tiles
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 4)))
        theta = 2.0 * math.pi * (np.arange(2048) + 0.5) / 2048
        cx, cy = np.cos(theta), np.sin(theta)
        coords = (np.arange(129) - 64) / 64.0
        gx, gy = np.meshgrid(coords, coords, indexing="ij", sparse=True)
        with counting_blocks() as blocks:
            flux = [pot.grid_values(r * cx, r * cy) for r in (0.899, 0.901)]
            circle = pot.grid_values(cx, cy)
            blocks.assert_not_called()
            cap = pot.grid_values(gx, gy)
            blocks.assert_called_once()
        for r, vals in zip((0.899, 0.901), flux):
            assert_near_oracle(vals, pot, r * cx, r * cy)
        assert np.all(np.abs(circle) <= ORACLE_BOUND)
        assert_near_oracle(cap, pot, gx, gy)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_far_route_needs_fewer_terms_than_atoms(self, extra):
        # one atom at |w| = 0.3 and the rest at 0.2, nodes at |z| = 0.6: rho =
        # max(0.3 / 0.6, 0.6 * 0.3) needs K terms (51), so K atoms take the
        # tiles and K + 1 the series
        theta = 2.0 * math.pi * np.arange(64) / 64
        gx, gy = 0.6 * np.cos(theta), 0.6 * np.sin(theta)
        r2 = gx * gx + gy * gy
        rho = max(0.3 / math.sqrt(r2.min()), math.sqrt(r2.max()) * 0.3)
        tail = potential_module._TAIL
        k = next(k for k in itertools.count() if rho ** (k + 1) < tail * (k + 1) * (1.0 - rho))
        n = k + extra
        ring = 0.2 * np.exp(2j * math.pi * np.arange(n - 1) / (n - 1))
        pot = GreenPotential(AtomicMeasure(np.concatenate([[0.3], ring]), np.full(n, 1.0 / n)))
        with counting_blocks() as blocks:
            got = pot.grid_values(gx, gy)
        assert blocks.called == (extra == 0)
        assert_near_oracle(got, pot, gx, gy)

    def test_order_is_counted_only_up_to_the_atom_count(self):
        # an atom at 0.99999 and a node on the circle: max|z| max|w| =
        # 0.99999 would take millions of terms, so the one atom adds its
        # image term directly, and the count stops at N
        pot = single_atom(0.99999)
        gx = np.array([1.0, 0.5, -0.3, 0.99999 - 1e-3])
        with within_seconds(1.0):
            assert abs(pot(1.0)) <= ORACLE_BOUND
            vals = pot.grid_values(gx, 0.0)
        assert_near_oracle(vals, pot, gx, 0.0)
        assert potential_module._order(1.0 - 2.0**-53, 7) == 7
        assert potential_module._order(0.5, 7) == 7
        assert potential_module._order(0.5, 100) == 51

    def test_node_alone_and_in_a_mixed_query_agree(self):
        # alone, the circle |z| = 0.95 lies outside the atoms and takes the
        # series; beside the origin it takes the tiles, with another K and
        # another route, so the last bits may differ
        pot = GreenPotential(frostman_measure(build_square_cantor(1.3, 4)))
        theta = 2.0 * math.pi * np.arange(100) / 100
        cx, cy = 0.95 * np.cos(theta), 0.95 * np.sin(theta)
        with counting_blocks() as blocks:
            alone = pot.grid_values(cx, cy)
            blocks.assert_not_called()
            mixed = pot.grid_values(np.append(cx, 0.0), np.append(cy, 0.0))[:-1]
            blocks.assert_called_once()
        assert np.all(np.abs(alone - mixed) <= ORACLE_BOUND * (1.0 + np.abs(mixed)))
        for i in (0, 37):
            node = pot.grid_values(cx[i], cy[i])
            assert abs(node - mixed[i]) <= ORACLE_BOUND * (1.0 + abs(mixed[i]))

    @pytest.mark.parametrize("alpha, generation", [(1.0, 3), (1.3, 3), (1.0, 4)])
    def test_lone_node_gets_the_bits_it_gets_asked_twice(self, alpha, generation):
        # a node asked twice in one call has the same min and max |z|, so the
        # same route and K: alone, its Horner sums must not take another loop
        pot = GreenPotential(frostman_measure(build_square_cantor(alpha, generation)))
        w_max = float(np.abs(pot.measure.locations).max())
        rng = np.random.default_rng(generation)
        r = rng.uniform(1.05 * w_max, 0.999, 300)
        theta = rng.uniform(0.0, 2.0 * math.pi, 300)
        far = 0
        for x, y in zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()):
            far += takes_far_route(pot, x, y)
            alone = pot.grid_values(np.array([x]), np.array([y]))
            twice = pot.grid_values(np.array([x, x]), np.array([y, y]))
            assert_bitwise(alone, twice[:1])
            assert_bitwise(np.array([pot(complex(x, y))]), twice[:1])
        assert far >= 50

    def test_worker_count_is_the_cpu_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert fields_module._workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert fields_module._workers() == (os.cpu_count() or 1)


class TestMassRecovery:
    def test_disc_radius_09_recovers_total_mass(self, gen5):
        _, _, potential = gen5
        recovered = disc_mass_recovery(potential)
        assert abs(recovered - 1.0) <= 0.02
        assert abs(recovered - 1.0) <= 1e-5


# -- oracle: frostman_certificate as it was before its radii went over the
# worker pool, kept verbatim (one query_ball_point call per radius, in order)


def frostman_certificate_oracle(measure: AtomicMeasure, alpha: float) -> FrostmanCertificate:
    """Certify the growth bound over dyadic radii and sampled centers.

    Checks every center when there are at most _MAX_CENTERS atoms, else a
    deterministic stride sample.  Radii run down to the atom resolution:
    the smallest dyadic radius still covering at least one nearest
    neighbor gap.  mu(D(z, r)) is taken as count x mass: equal masses only.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    if np.any(measure.masses != measure.masses[0]):
        raise ParameterError("frostman_certificate needs equal atom masses")
    locs = measure.locations
    n_atoms = len(locs)
    stride = max(1, n_atoms // potential_module._MAX_CENTERS)
    centers = locs[::stride]

    pts = np.column_stack([locs.real, locs.imag])
    tree = cKDTree(pts)
    if n_atoms > 1:
        gaps, _ = tree.query(pts, k=2)
        resolution = float(gaps[:, 1].min())
    else:
        resolution = 1e-6
    radii = []
    r = 0.5
    while r >= resolution:
        radii.append(r)
        r *= 0.5
    if len(radii) < 2:
        raise ParameterError("measure too coarse for a dyadic radius sweep")

    qry = np.column_stack([centers.real, centers.imag])
    best = 0.0
    mass = measure.masses[0]
    for r in radii:
        counts = tree.query_ball_point(qry, r, return_length=True)
        # query_ball_point counts the closed disc, at least the open-disc
        # count behind mu(D(z, r)), so the constant errs on the conservative side
        ratio = counts.max() * mass / r**alpha
        best = max(best, float(ratio))
    return FrostmanCertificate(
        constant=best,
        samples=len(centers) * len(radii),
        radii=tuple(radii),
    )


def assert_same_certificate(got, want):
    assert got == want and got.constant.hex() == want.constant.hex()


class TestFrostmanPool:
    """The quadtree counts, radii dealt over the worker pool, against the
    k-d tree's serial radius loop, bit for bit, whatever the thread count."""

    @pytest.mark.parametrize("generation", range(1, 9))
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
    def test_equal_to_the_serial_loop(self, alpha, generation):
        # generations 7 and 8 hold 16,384 and 65,536 atoms, above
        # _MAX_CENTERS: a stride sample
        square_set = build_square_cantor(alpha, generation)
        try:
            want = frostman_certificate_oracle(frostman_measure(square_set), alpha)
        except ParameterError as err:
            # one corner gap wider than r = 1/4 leaves a single radius
            for workers in _WORKERS:
                with with_workers(workers), pytest.raises(ParameterError) as got:
                    frostman_certificate(square_set)
                assert str(got.value) == str(err)
            return
        for workers in _WORKERS:
            with with_workers(workers):
                assert_same_certificate(frostman_certificate(square_set), want)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_threads_interleaved(self, workers):
        # a short switch interval interleaves the shares at every few
        # bytecodes, so a peak written to another share's radius would show
        square_set = build_square_cantor(1.0, 6)
        want = frostman_certificate_oracle(frostman_measure(square_set), 1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with with_workers(workers), mock.patch.object(
                concurrent.futures, "ThreadPoolExecutor", wraps=concurrent.futures.ThreadPoolExecutor
            ) as pool:
                got = frostman_certificate(square_set)
        finally:
            sys.setswitchinterval(interval)
        assert_same_certificate(got, want)
        # one pool, of workers - 1 threads beside the caller: no second pool inside
        assert pool.call_args_list == [mock.call(workers - 1)]


class TestFrostmanCertificate:
    def test_constants_pinned_and_stable(self):
        consts = {}
        for n in (4, 5, 6):
            cert = frostman_certificate(build_square_cantor(1.0, n))
            assert cert.constant == GROWTH_CONSTANTS[n]
            consts[n] = cert.constant
        assert 0.5 <= consts[5] / consts[4] <= 2.0
        assert 0.5 <= consts[6] / consts[5] <= 2.0

    def test_alpha_guard(self, gen5):
        # build_square_cantor refuses this alpha; a hand-made set can carry it
        square_set = dataclasses.replace(gen5[0], alpha=2.5)
        with pytest.raises(ParameterError, match="alpha"):
            frostman_certificate(square_set)

    def test_coincident_atoms_rejected_before_any_count(self):
        # at alpha 0.1 the generation-4 offsets (about 6e-19) round away
        # against the corners; a nearest-neighbour gap of 0 once halved the
        # radius down to 0.0 forever
        square_set = build_square_cantor(0.1, 4)
        assert len(np.unique(square_set.centers(), axis=0)) < 4**4
        with mock.patch.object(fields_module, "_run_blocks") as blocks, within_seconds(1.0):
            with pytest.raises(ParameterError, match="distinct atom locations"):
                frostman_certificate(square_set)
        blocks.assert_not_called()


def least_gap_oracle(points: np.ndarray) -> float:
    """The nearest-neighbour gap as frostman_certificate took it before it
    read the gap off the construction: the k-d tree's least distance from
    an atom to another.  Coincident atoms are 0.0 apart, found without the
    tree, which is slow on many of them."""
    if len(np.unique(points.view(np.complex128))) < len(points):
        return 0.0
    return float(cKDTree(points).query(points, k=2)[0][:, 1].min())


# alphas over (0, 2) and up against its ends; the smallest put some
# offsets below half an ulp of their corners, so atoms coincide
_GAP_ALPHAS = [*np.linspace(0.05, 1.999, 60).tolist(), 0.1, 0.3, 0.5, 1.0, 1.3, 1.8, 1.95]


class TestLeastGap:
    """The least sibling gap of the last generation equals the k-d tree's
    nearest-neighbour gap bit for bit, 0.0 where atoms coincide."""

    @pytest.mark.parametrize("generation", range(1, 9))
    def test_equal_to_the_kd_tree(self, generation):
        gaps = []
        # at generations 7 and 8, where one tree takes about 0.1 s, every
        # sixth alpha, 0.1 and 1.95 among them
        for alpha in _GAP_ALPHAS[:: 1 if generation <= 6 else 6]:
            pts = build_square_cantor(alpha, generation).centers()
            got, want = potential_module._least_gap(pts), least_gap_oracle(pts)
            assert got.hex() == want.hex(), alpha
            gaps.append(got)
        if generation >= 3:
            # the distinct-atom guard's case is among them
            assert 0.0 in gaps and min(g for g in gaps if g) > 0.0

    @pytest.mark.parametrize("squash", [(1.0, 0.5), (0.5, 1.0)])
    def test_either_axis_can_hold_the_gap(self, squash):
        # the construction is symmetric in x and y, so both sibling gaps
        # tie; squashed along one axis, that axis's siblings are closest
        for generation in (1, 4, 6):
            pts = build_square_cantor(1.3, generation).centers() * squash
            assert potential_module._least_gap(pts).hex() == least_gap_oracle(pts).hex()

    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    def test_equal_to_the_kd_tree_at_the_generation_budget(self, alpha):
        pts = build_square_cantor(alpha, 10).centers()
        assert potential_module._least_gap(pts).hex() == least_gap_oracle(pts).hex()


class TestDiscCounts:
    """The quadtree count equals the k-d tree's per-atom closed-disc count
    for every center, on dyadic, random and tie radii, where a tie puts an
    atom on the circle: r * r equals its rounded squared distance."""

    @pytest.mark.parametrize("generation", range(1, 9))
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.8, 1.95])
    def test_equal_to_query_ball_point(self, alpha, generation):
        pts = build_square_cantor(alpha, generation).centers()
        centers = pts[:: max(1, len(pts) // potential_module._MAX_CENTERS)]
        boxes = potential_module._square_boxes(pts)
        rng = np.random.default_rng(generation)
        # squared distances from a few centers to a few atoms, rounded as the count rounds them
        d = centers[rng.integers(len(centers), size=24)] - pts[rng.integers(len(pts), size=24)]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        near_ties = [np.nextafter(np.sqrt(d2), step) for step in (0.0, np.inf)]
        ties = [r for r in np.concatenate([np.sqrt(d2), *near_ties]) if r * r in d2]
        assert len(ties) >= 6
        radii = [0.5**j for j in range(1, 12)] + list(rng.uniform(1e-4, 1.0, 8)) + ties
        tree = cKDTree(pts)
        for r in map(float, radii):
            got = potential_module._disc_counts(boxes, centers, r)
            want = tree.query_ball_point(centers, r, return_length=True)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"r={r!r}")

    def test_whole_squares_and_single_atoms(self):
        # about the root square's center, r = 1 holds every atom and r = 0 none;
        # about an atom, r = 0 holds that atom alone
        pts = build_square_cantor(1.0, 3).centers()
        boxes = potential_module._square_boxes(pts)
        origin = np.zeros((1, 2))
        assert potential_module._disc_counts(boxes, origin, 1.0).tolist() == [64]
        assert potential_module._disc_counts(boxes, origin, 0.0).tolist() == [0]
        assert potential_module._disc_counts(boxes, pts, 0.0).tolist() == [1] * 64


# -- oracle: box_dimension as it was before it built its keys in point
# chunks, kept verbatim (whole transposed columns, full-length temporaries)


# what box_dimension raises for the points -1 and 2^54 (+ 4, + 8) at scales 1 to 16
_IDS_TOO_LARGE = ParameterError("scale 1.0 too fine for the point coordinates")


def box_dimension_oracle(points: np.ndarray, scales) -> BoxCountRegression:
    """Count occupied axis boxes per scale and regress the dimension.

    points is (N, d); each scale partitions space into a grid of closed-
    open boxes anchored at the pointwise minimum corner, so dyadic scale
    chains nest against the set rather than against an arbitrary origin.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ParameterError("points must be a nonempty (N, d) array")
    scales = tuple(float(s) for s in scales)
    if len(scales) < 5:
        raise ParameterError("dimension regression needs at least 5 scales")
    if any(s <= 0.0 for s in scales):
        raise ParameterError("scales must be positive")
    cols = np.ascontiguousarray(pts.T)
    lo = cols.min(axis=1)
    hi = cols.max(axis=1)
    # min and max propagate NaN, and an infinite point makes one of them infinite
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ParameterError("points must be finite")
    width = 63 // len(cols)
    cell = np.empty(pts.shape[0])
    ids = np.empty(pts.shape[0], dtype=np.uint64)
    key = np.empty(pts.shape[0], dtype=np.uint64)
    counts = []
    for s in scales:
        # floor(x / s) is monotone in x, so floor(lo / s) is the smallest
        # cell id per column; offsetting by it is a bijection on cells, so
        # the occupied-box count is unchanged and keys pack into one word
        base = np.floor(lo / s)
        if np.any(np.floor(hi / s) - base >= 2.0**width):
            raise ParameterError(f"scale {s} too fine for the point spread")
        key.fill(0)
        for col, b in zip(cols, base):
            np.divide(col, s, out=cell)
            np.floor(cell, out=cell)
            cell -= b
            np.copyto(ids, cell, casting="unsafe")
            key <<= width
            key |= ids
        # sort and count runs: numpy's unique hashes integer keys, several times slower
        key.sort()
        counts.append(1 + int(np.count_nonzero(key[1:] != key[:-1])))
    slope = float(
        np.polyfit(np.log(1.0 / np.array(scales)), np.log(np.array(counts)), 1)[0]
    )
    return BoxCountRegression(scales=scales, counts=tuple(counts), slope=slope)


class TestBoxDimension:
    def test_planar_alpha_one_slope_exact(self):
        sc = build_square_cantor(1.0, 8)
        scales = [0.7 * 0.25**k for k in range(1, 7)]
        reg = box_dimension(sc.centers().T, scales)
        assert reg.counts == (4, 16, 64, 256, 1024, 4096)
        assert abs(reg.slope - 1.0) <= 1e-9
        assert abs(reg.slope - 1.0) <= 0.1

    def test_planar_alpha_half_slope(self):
        sc = build_square_cantor(0.5, 8)
        a = sc.ratio
        reg = box_dimension(sc.centers().T, [0.7 * a**k for k in range(1, 6)])
        assert abs(reg.slope - 0.5) <= 1e-9

    def test_parameter_guards(self):
        cols = np.zeros((2, 10))
        with pytest.raises(ParameterError, match="5 scales"):
            box_dimension(cols, [0.5, 0.25, 0.125, 0.0625])
        with pytest.raises(ParameterError, match="positive"):
            box_dimension(cols, [0.5, 0.25, 0.125, 0.0625, 0.0])
        with pytest.raises(ParameterError, match="nonempty"):
            box_dimension(np.zeros((2, 0)), [0.5, 0.25, 0.125, 0.0625, 0.03125])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.array([[0.1, 0.2], [0.5, bad], [0.9, 0.7]])
        with pytest.raises(ParameterError, match="finite"):
            box_dimension(pts.T, [2.0**-k for k in range(1, 6)])

    @given(
        d=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
        dup=st.integers(0, 60),
        snap=st.booleans(),
        scales=st.lists(
            st.floats(1e-3, 1e2), min_size=5, max_size=7, unique_by=lambda x: round(math.log(x), 1)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_set_oracle(self, d, seed, n, dup, snap, scales):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3.0, 3.0, (n, d)) * rng.uniform(0.01, 1.0, d)
        if snap:
            # coordinates on the lattice of a drawn scale land on box edges
            pts = np.round(pts / scales[0]) * scales[0]
        pts = np.concatenate([pts, pts[rng.integers(0, n, dup)]])
        reg = box_dimension(pts.T, scales)
        assert reg.counts == tuple(box_count_oracle(pts, s) for s in scales)

    @given(
        d=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
        snap=st.booleans(),
        chunk=st.sampled_from(["1", "7", "non-divisor"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_point_chunks_match_the_whole_array_oracle(self, d, seed, n, snap, chunk):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3.0, 3.0, (n, d)) * rng.uniform(0.01, 1.0, d)
        scales = [2.0 ** rng.uniform(-9.0, 1.0) for _ in range(6)]
        if snap:
            pts = np.round(pts / scales[0]) * scales[0]
        pts = np.concatenate([pts, pts[rng.integers(0, n, n // 3)]])
        # n // 2 + 1 divides no length of at least 3
        size = {"1": 1, "7": 7, "non-divisor": len(pts) // 2 + 1}[chunk]
        with mock.patch.object(potential_module, "_BLOCK", size):
            reg = box_dimension(pts.T, scales)
        want = box_dimension_oracle(pts, scales)
        assert reg.counts == want.counts
        assert reg.slope.hex() == want.slope.hex()

    def test_graph_cloud_in_bounded_memory(self, gen5):
        # 1,048,576 points in 4 columns (16 MiB of w), built before tracing starts
        square_set, _, potential = gen5
        cols = graph_set_points(square_set, potential, n_angles=1024)
        scales = [2.0**-k for k in range(3, 9)]
        tracemalloc.start()
        try:
            reg = box_dimension(cols, scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MiB keys, one column chunk, its integer copy and the run
        # mask; the whole-array build held a transposed copy of the dense
        # cloud and full-length temporaries too, 57 MB in all
        assert peak <= 12 * 2**20
        assert reg == box_dimension_oracle(stacked(cols), scales)

    @pytest.mark.parametrize("n_angles", [1, 16, 1024])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
    def test_graph_columns_match_the_dense_oracle(self, alpha, n_angles):
        # the runner's graph set at generation 5: z columns of N rows
        # broadcast against N x n_angles circles
        square_set = build_square_cantor(alpha, 5)
        potential = GreenPotential(frostman_measure(square_set))
        cols = graph_set_points(square_set, potential, n_angles)
        scales = [2.0**-k for k in range(3, 9)]
        reg = box_dimension(cols, scales)
        want = box_dimension_oracle(stacked(cols), scales)
        assert reg.counts == want.counts
        assert reg.slope.hex() == want.slope.hex()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
    def test_planar_columns_match_the_dense_oracle(self, alpha):
        square_set = build_square_cantor(alpha, 8)
        scales = [0.7 * square_set.ratio**k for k in range(1, 7)]
        reg = box_dimension(square_set.centers().T, scales)
        want = box_dimension_oracle(square_set.centers(), scales)
        assert reg.counts == want.counts
        assert reg.slope.hex() == want.slope.hex()

    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 4),
        rank=st.integers(0, 3),
        snap=st.booleans(),
        chunk=st.sampled_from([1, 7, potential_module._BLOCK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_broadcast_columns_match_the_dense_oracle(self, seed, d, rank, snap, chunk):
        # each column keeps a random subset of the axes, the others of
        # length 1, and may drop leading ones: 0-d columns included
        rng = np.random.default_rng(seed)
        full = rng.integers(1, 9, rank)
        scales = [2.0 ** rng.uniform(-9.0, 1.0) for _ in range(6)]
        scales += [math.ldexp(scales[0], k) for k in range(1, 4)]
        cols = []
        for _ in range(d):
            shape = np.where(rng.random(rank) < 0.5, full, 1)[rng.integers(0, rank + 1) :]
            col = rng.uniform(-3.0, 3.0, shape) * rng.uniform(0.01, 1.0)
            cols.append(np.round(col / scales[0]) * scales[0] if snap else col)
        with mock.patch.object(potential_module, "_BLOCK", chunk):
            reg = box_dimension(cols, scales)
        want = box_dimension_oracle(stacked(cols), scales)
        assert reg.counts == want.counts
        assert reg.slope.hex() == want.slope.hex()

    @pytest.mark.parametrize(
        "cols, scales",
        [
            pytest.param((np.zeros((0, 1)), np.zeros((1, 5))), [1.0, 2.0, 4.0, 8.0, 16.0], id="empty"),
            pytest.param(
                (np.array([[0.1], [math.nan]]), np.array([0.2, 0.3, 0.4])),
                [2.0**-k for k in range(1, 6)],
                id="nan-in-rows",
            ),
            pytest.param(
                (np.array([[0.1], [0.5]]), np.array([0.2, -math.inf, 0.4])),
                [2.0**-k for k in range(1, 6)],
                id="inf-in-angles",
            ),
            # four columns pack 15 bits each: a spread of 2^15 cells does not fit
            pytest.param(
                (np.zeros((2, 1)), np.zeros((2, 1)), np.array([[-1.0, 2.0**15 - 1.0]]), np.zeros((1, 1))),
                [1.0, 2.0, 4.0, 8.0, 16.0],
                id="too-fine-for-spread",
            ),
            # one column of 63 bits, (3, 1)-shaped: ids of 2^52 or more
            pytest.param(
                (np.array([[-1.0], [2.0**54], [2.0**54 + 4.0]]),),
                [1.0, 2.0, 4.0, 8.0, 16.0],
                id="ids-past-2-52",
            ),
        ],
    )
    def test_broadcast_errors_match_the_dense_points(self, cols, scales):
        # the same error as for the stacked points' dense columns, and as
        # the oracle's where it has the check: it predates the 2^52 guard
        dense = stacked(cols)
        with pytest.raises(ParameterError) as want:
            box_dimension(dense.T, scales)
        with pytest.raises(ParameterError) as got:
            box_dimension(cols, scales)
        assert str(got.value) == str(want.value)
        if str(want.value) != str(_IDS_TOO_LARGE):
            # the oracle words the empty case its own way
            pattern = "nonempty" if len(dense) == 0 else re.escape(str(want.value))
            with pytest.raises(ParameterError, match=pattern):
                box_dimension_oracle(dense, scales)

    def test_tiny_negative_in_a_broadcast_column_builds_from_the_points(self):
        # -5e-324 / 2 rounds to -0.0, into the cell of 0 at scale 2, while
        # -5e-324 / 1 stays in cell -1: cells derived from scale 1 would
        # keep the two x values apart at every scale
        cols = (np.array([[-5e-324], [0.0]]), np.array([[0.0, 0.3, 0.6]]))
        scales = [1.0, 2.0, 4.0, 8.0, 16.0]
        reg = box_dimension(cols, scales)
        want = box_dimension_oracle(stacked(cols), scales)
        assert reg.counts == want.counts == (2, 1, 1, 1, 1)
        assert reg.slope.hex() == want.slope.hex()

    def test_columns_that_do_not_broadcast_rejected(self):
        with pytest.raises(ParameterError, match="broadcast together"):
            box_dimension((np.zeros(3), np.zeros(4)), [2.0**-k for k in range(1, 6)])

    @pytest.mark.parametrize(
        "spread, scales, too_fine",
        [
            pytest.param(2**15 - 1, [1.0, 2.0, 4.0, 8.0, 16.0], None, id="32767-True"),
            pytest.param(2**15, [1.0, 2.0, 4.0, 8.0, 16.0], 1.0, id="32768-False"),
            # 1 and 2 are both too fine; the first in the caller's order is named
            pytest.param(2**16, [2.0, 1.0, 4.0, 8.0, 16.0], 2.0, id="65536-coarser-first"),
        ],
    )
    def test_too_fine_for_point_spread(self, spread, scales, too_fine):
        # four columns pack 15 bits each: ids 0 .. 2^15 - 1 per column fit
        pts = np.zeros((3, 4))
        pts[1, 2] = -1.0
        pts[2, 2] = spread - 1.0
        if too_fine is None:
            reg = box_dimension(pts.T, scales)
            assert reg.counts == tuple(box_count_oracle(pts, s) for s in scales)
        else:
            for count, points in ((box_dimension, pts.T), (box_dimension_oracle, pts)):
                with pytest.raises(ParameterError, match=f"scale {too_fine} too fine for"):
                    count(points, scales)

    @given(
        d=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
        snap=st.booleans(),
        finest=st.floats(2.0**-9, 0.5),
        # at least two distinct chain scales, so the regression has rank 2
        steps=st.lists(st.integers(0, 4), min_size=2, max_size=6).filter(lambda k: any(k[1:])),
        others=st.lists(st.floats(2.0**-9, 4.0), max_size=3),
        chunk=st.sampled_from([1, 7, potential_module._BLOCK]),
    )
    @settings(max_examples=200, deadline=None)
    def test_dyadic_chain_matches_the_oracle(
        self, d, seed, n, snap, finest, steps, others, chunk
    ):
        # a dyadic chain (step 0 repeats a scale) mixed with arbitrary scales,
        # in random caller order; the chain's cells come from finer ones
        rng = np.random.default_rng(seed)
        chain = [math.ldexp(finest, int(k)) for k in np.cumsum(steps)]
        scales = chain + others + [chain[-1]]
        scales += [math.ldexp(finest, 5 + k) for k in range(max(0, 5 - len(scales)))]
        rng.shuffle(scales)
        pts = rng.uniform(-3.0, 3.0, (n, d)) * rng.uniform(0.01, 1.0, d)
        if snap:
            # coordinates on the finest lattice land on the edges of every chain box
            pts = np.round(pts / finest) * finest
        pts = np.concatenate([pts, pts[rng.integers(0, n, n // 3)]])
        with mock.patch.object(potential_module, "_BLOCK", chunk):
            reg = box_dimension(pts.T, scales)
        want = box_dimension_oracle(pts, scales)
        assert reg.scales == want.scales
        assert reg.counts == want.counts
        assert reg.slope.hex() == want.slope.hex()

    @pytest.mark.parametrize(
        "pts, counts",
        [
            # -5e-324 / 2 rounds to -0.0, in cell 0 at scale 2 with the point
            # at 0, while -5e-324 / 1 stays below 0, in cell -1 at scale 1
            ([[-5e-324], [0.0]], (2, 1, 1, 1, 1)),
            ([[-5e-324, 1.0], [0.0, 0.5], [0.3, -2.0]], (3, 2, 2, 2, 2)),
            # cell ids past 2^53 round in float64: counted from the rounded
            # ids, scale 1 gave (3, 3, 3, 2, 2) and the non-monotone
            # (4, 3, 4, 3, 2) here, so a scale with ids of 2^52 or more is
            # rejected, the first in the caller's order named
            ([[-1.0], [2.0**54], [2.0**54 + 4.0]], _IDS_TOO_LARGE),
            ([[-1.0], [2.0**54], [2.0**54 + 4.0], [2.0**54 + 8.0]], _IDS_TOO_LARGE),
        ],
    )
    def test_chain_edges_build_from_the_points(self, pts, counts):
        pts = np.array(pts)
        scales = [1.0, 2.0, 4.0, 8.0, 16.0]
        if isinstance(counts, ParameterError):
            with pytest.raises(ParameterError, match=str(counts)):
                box_dimension(pts.T, scales)
            return
        reg = box_dimension(pts.T, scales)
        want = box_dimension_oracle(pts, scales)
        assert reg.counts == want.counts == counts
        assert reg.slope.hex() == want.slope.hex()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_counts_nonincreasing_in_scale(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((64, 2))
        scales = [2.0**-k for k in range(1, 7)]
        reg = box_dimension(pts.T, scales)
        assert all(a <= b for a, b in zip(reg.counts, reg.counts[1:]))


class TestGraphSet:
    def test_point_cloud_shape_and_radii(self, gen5):
        square_set, _, potential = gen5
        zx, zy, wx, wy = graph_set_points(square_set, potential, n_angles=16)
        assert (zx.shape, zy.shape, wx.shape, wy.shape) == ((4**5, 1),) * 2 + ((4**5, 16),) * 2
        np.testing.assert_array_equal(np.hstack([zx, zy]), square_set.squares)
        assert np.isfinite(wx).all() and np.isfinite(wy).all()
        r = np.hypot(wx, wy)
        assert r.min() > 0.0
        assert r.max() < 1.0
        # each circle has one radius, the one of its corner
        assert np.all(r.max(axis=1) - r.min(axis=1) <= 1e-15 * r.max(axis=1))

    def test_graph_dimension_near_one_plus_alpha(self, gen5):
        square_set, _, potential = gen5
        cols = graph_set_points(square_set, potential, n_angles=1024)
        reg = box_dimension(cols, [2.0**-k for k in range(3, 9)])
        assert abs(reg.slope - 2.0) <= 0.15
        assert abs(reg.slope - GRAPH_SLOPE_PIN) <= 2e-2


class TestZygmundSeminorm:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_quadratic_attains_max_at_largest_offset(self, alpha):
        field = DiscField.from_function(1.0 / 256.0, lambda x, y: x * x + y * y)
        m = zygmund_seminorm(field, alpha, budget=2000)
        top = 2.0 * 0.1 ** (2.0 - alpha)
        assert m <= top * 1.02
        assert m >= 2.0 * 0.09 ** (2.0 - alpha)

    def test_returns_python_float(self):
        field = DiscField.from_function(1.0 / 256.0, lambda x, y: x * x + y * y)
        assert type(zygmund_seminorm(field, 1.0, budget=200)) is float

    def test_affine_field_has_zero_seminorm(self):
        field = DiscField.from_function(1.0 / 256.0, lambda x, y: 0.3 * x - 0.7 * y + 0.1)
        assert zygmund_seminorm(field, 1.0, budget=2000) <= 1e-10

    def test_green_potential_stable_under_budget_doubling(self, gen4_field):
        m1 = zygmund_seminorm(gen4_field, 1.0, budget=4000)
        m2 = zygmund_seminorm(gen4_field, 1.0, budget=8000)
        assert math.isfinite(m1) and m1 > 0.0
        assert 1.0 / 1.2 <= m2 / m1 <= 1.2

    def test_parameter_guards(self, gen4_field):
        with pytest.raises(ParameterError, match="alpha"):
            zygmund_seminorm(gen4_field, 2.0, budget=10)
        with pytest.raises(ParameterError, match="budget"):
            zygmund_seminorm(gen4_field, 1.0, budget=0)
        coarse = DiscField.from_function(0.2, lambda x, y: x * y)
        with pytest.raises(ParameterError, match="coarse"):
            zygmund_seminorm(coarse, 1.0, budget=10)


class TestZygmundDomain:
    def test_metadata_and_cap_formula(self, cantor_scan):
        cap, _ = cantor_scan
        assert isinstance(cap, DiscField)  # the Cantor cap is the bare cap
        pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 4)))
        xs = cap.axis()
        i, j = 300, 350
        ref = 0.5 * math.log(1.0 - (xs[i] ** 2 + xs[j] ** 2)) - pot(
            complex(xs[i], xs[j])
        )
        assert abs(cap.values[i, j] - ref) <= 1e-12

    def test_violations_localized_near_squares(self, cantor_scan):
        cap, scan = cantor_scan
        h = cap.spacing
        viol = np.argwhere(scan.violating)
        assert len(viol) > 0
        xs = cap.axis()
        sq = build_square_cantor(1.0, 4)
        centers = sq.centers()
        dist = np.empty(len(viol))
        for k, (i, j) in enumerate(viol):
            ddx = np.maximum(
                np.maximum(centers[:, 0] - xs[i], xs[i] - (centers[:, 0] + sq.side)),
                0.0,
            )
            ddy = np.maximum(
                np.maximum(centers[:, 1] - xs[j], xs[j] - (centers[:, 1] + sq.side)),
                0.0,
            )
            dist[k] = np.hypot(ddx, ddy).min()
        assert dist.max() <= 4.5 * h
        assert dist.max() <= 0.1

    def test_far_field_is_strictly_superharmonic(self, cantor_scan):
        cap, scan = cantor_scan
        locs = frostman_measure(build_square_cantor(1.0, 4)).locations
        gx, gy = np.broadcast_arrays(*cap.meshes())
        dist = (
            cKDTree(np.column_stack([locs.real, locs.imag]))
            .query(np.column_stack([gx.ravel(), gy.ravel()]))[0]
            .reshape(gx.shape)
        )
        far = scan.scanned & (dist > 0.1)
        assert not np.any(scan.violating & far)
        assert np.nanmax(scan.laplacian[far]) <= -2.0 + 1e-2

    def test_violating_set_shrinks_with_alpha(self):
        counts = []
        for alpha in (1.0, 0.5, 0.25):
            scan = subharmonicity_scan(zygmund_domain(alpha, 3, spacing=1.0 / 256.0))
            counts.append(int(scan.violating.sum()))
        assert counts[0] > counts[1] > counts[2] > 0
