import concurrent.futures
import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_disc import disc_inside, disc_node_coords
from helpers_poly import Poly3, node_gradient, node_hessian
from levicheck import cli, fields, potential, staircase
from test_potential import with_workers
from levicheck.fields import (
    DiscField,
    DomainError,
    Grid3,
    ScalarField3,
    StencilError,
    circle_mean,
    stable_sum,
)


def centered_grid(h, n):
    # symmetric cube grid with a node at the origin; n must be odd
    half = (n - 1) // 2
    return Grid3((-half * h, -half * h, -half * h), h, (n, n, n))


class TestRunBlocks:
    """fields._run_blocks: one result per block, in block order, and one
    buffer per share that no other thread touches, at any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_blocks", [0, 1, 7, 29])
    def test_results_in_block_order_with_a_buffer_per_share(self, workers, n_blocks):
        blocks = [f"block {i}" for i in range(n_blocks)]
        shares = max(1, min(workers, n_blocks))
        made = []
        lock = threading.Lock()

        def buffer():
            buf = {"threads": set(), "blocks": [], "busy": False}
            with lock:
                made.append(buf)
            return buf

        def visit(buf, block):
            assert not buf["busy"], "two threads hold one buffer"
            buf["busy"] = True
            buf["threads"].add(threading.get_ident())
            buf["blocks"].append(block)
            sum(range(2000))  # long enough for the other threads to run
            buf["busy"] = False
            return block.upper()

        # a short switch interval interleaves the threads at every few
        # bytecodes, so a result stored at its share's place rather than its
        # block's, or a buffer two threads shared, would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with with_workers(workers), mock.patch.object(
                concurrent.futures, "ThreadPoolExecutor", wraps=concurrent.futures.ThreadPoolExecutor
            ) as pool:
                got = fields._run_blocks(blocks, buffer, visit)
        finally:
            sys.setswitchinterval(interval)
        assert got == [block.upper() for block in blocks]
        # one buffer per share, each used by one thread for its round-robin share
        assert len(made) == shares
        assert all(len(buf["threads"]) <= 1 for buf in made)
        shares_seen = sorted(buf["blocks"] for buf in made)
        assert shares_seen == sorted(blocks[k::shares] for k in range(shares))
        # the caller runs share 0; one share starts no pool
        first = next(buf for buf in made if buf["blocks"][:1] == blocks[:1])
        assert first["threads"] <= {threading.get_ident()}
        assert pool.call_args_list == ([mock.call(shares - 1)] if shares > 1 else [])


class TestGridInvariants:
    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Grid3((0, 0, 0), 0.0, (5, 5, 5))
        with pytest.raises(ValueError):
            Grid3((0, 0, 0), -0.1, (5, 5, 5))

    @pytest.mark.parametrize("extents", [(4, 5, 5), (5, 4, 5), (5, 5, 2)])
    def test_rejects_small_extents(self, extents):
        with pytest.raises(ValueError):
            Grid3((0, 0, 0), 0.1, extents)

    def test_field_rejects_nonfinite_values(self):
        g = centered_grid(0.1, 5)
        vals = np.zeros(g.shape)
        vals[2, 2, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField3(g, vals)

    # the check reads one plane along each stride-0 axis, which holds every
    # value of the view; a non-finite one there still raises, a view is kept
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_broadcast_view_with_nonfinite_value_raises(self, bad):
        g = Grid3((0.0, 0.0, 0.0), 0.1, (5, 6, 7))
        plane, line = np.zeros((5, 6, 1)), np.zeros((1, 6, 1))
        for base, node in ((plane, (4, 5, 0)), (plane, (0, 0, 0)), (line, (0, 3, 0))):
            kept = ScalarField3(g, np.broadcast_to(base, g.shape))
            assert np.shares_memory(kept.values, base)
            base[node] = bad
            with pytest.raises(DomainError):
                ScalarField3(g, np.broadcast_to(base, g.shape))
            base[node] = 0.0

    def test_field_values_immutable(self):
        f = ScalarField3.from_function(centered_grid(0.1, 5), lambda a, b, c: a + b + c)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


class TestFdGradient:
    def test_coordinate_field(self):
        f = ScalarField3.from_function(centered_grid(0.125, 9), lambda a, b, c: a)
        for node in [(4, 4, 4), (1, 2, 7), (6, 1, 1)]:
            g = f.fd_gradient(node)
            assert abs(g[0] - 1.0) <= 1e-12
            assert abs(g[1]) <= 1e-12
            assert abs(g[2]) <= 1e-12

    def test_quadratic_component(self):
        # f = xi2^2 at the node with xi2 = 0.5: central difference gives 2*xi2 exactly
        g = Grid3((0.0, 0.0, 0.0), 0.01, (9, 60, 9))
        f = ScalarField3.from_function(g, lambda a, b, c: b * b)
        assert abs(f.fd_gradient((4, 50, 4))[1] - 1.0) <= 1e-10

    def test_sin_taylor_bound(self):
        h = 0.01
        f = ScalarField3.from_function(centered_grid(h, 9), lambda a, b, c: np.sin(a))
        g = f.fd_gradient((4, 4, 4))
        assert abs(g[0] - math.sin(h) / h) <= 1e-12
        assert abs(1.0 - g[0]) <= h * h / 6.0
        assert abs(g[1]) <= 1e-12 and abs(g[2]) <= 1e-12

    @pytest.mark.parametrize("node", [(0, 4, 4), (8, 4, 4), (4, 0, 4), (4, 4, 8)])
    def test_boundary_node_raises(self, node):
        f = ScalarField3.from_function(centered_grid(0.1, 9), lambda a, b, c: a)
        with pytest.raises(StencilError):
            f.fd_gradient(node)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.tuples(*[st.floats(-5, 5) for _ in range(3)]),
        b=st.floats(-5, 5),
    )
    def test_affine_exactness(self, a, b):
        f = ScalarField3.from_function(
            centered_grid(0.125, 7), lambda x, y, z: a[0] * x + a[1] * y + a[2] * z + b
        )
        g = f.fd_gradient((3, 3, 3))
        scale = 1.0 + max(abs(v) for v in a) + abs(b)
        assert max(abs(g[k] - a[k]) for k in range(3)) <= 1e-9 * scale


class TestFdHessian:
    def test_bilinear_mixed_entry(self):
        f = ScalarField3.from_function(centered_grid(0.0625, 9), lambda a, b, c: a * b)
        hess = f.fd_hessian((3, 5, 4))
        assert hess[0, 1] == 1.0
        assert hess[1, 0] == 1.0
        assert hess[0, 2] == 0.0 and hess[1, 2] == 0.0

    def test_pure_quadratic_entry(self):
        f = ScalarField3.from_function(centered_grid(0.0625, 9), lambda a, b, c: c * c)
        hess = f.fd_hessian((4, 4, 3))
        assert hess[2, 2] == 2.0
        assert hess[0, 0] == 0.0 and hess[1, 1] == 0.0

    def test_symmetry(self):
        f = ScalarField3.from_function(
            centered_grid(0.05, 9), lambda a, b, c: np.sin(a * b) + np.cos(b * c) + a * c * c
        )
        hess = f.fd_hessian((4, 4, 4))
        assert np.array_equal(hess, hess.T)

    def test_kink_second_difference_values(self):
        # |xi1| probed with h = 1/8.  Second difference across the kink:
        # on the kink 2/h = 16, one node off 0, half-cell offsets straddle
        # the kink and give 1/h = 8 (at 3h/2 the stencil sees an affine piece).
        h = 0.125
        on = ScalarField3.from_function(centered_grid(h, 9), lambda a, b, c: np.abs(a))
        assert on.fd_hessian((4, 4, 4))[0, 0] == 16.0
        assert on.fd_hessian((5, 4, 4))[0, 0] == 0.0
        off = ScalarField3.from_function(
            Grid3((-4.5 * h, -4 * h, -4 * h), h, (9, 9, 9)), lambda a, b, c: np.abs(a)
        )
        # nodes sit at half-integer multiples of h; xi1 = +-h/2 at indices 4, 5
        assert off.fd_hessian((4, 4, 4))[0, 0] == 8.0
        assert off.fd_hessian((5, 4, 4))[0, 0] == 8.0
        assert off.fd_hessian((6, 4, 4))[0, 0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        diag=st.tuples(*[st.floats(-3, 3) for _ in range(3)]),
        off=st.tuples(*[st.floats(-3, 3) for _ in range(3)]),
    )
    def test_quadratic_exactness(self, diag, off):
        mat = np.array(
            [
                [diag[0], off[0], off[1]],
                [off[0], diag[1], off[2]],
                [off[1], off[2], diag[2]],
            ]
        )
        f = ScalarField3.from_function(
            centered_grid(0.125, 7),
            lambda x, y, z: 0.5
            * (
                mat[0, 0] * x * x
                + mat[1, 1] * y * y
                + mat[2, 2] * z * z
                + 2 * mat[0, 1] * x * y
                + 2 * mat[0, 2] * x * z
                + 2 * mat[1, 2] * y * z
            ),
        )
        hess = f.fd_hessian((3, 3, 3))
        assert np.max(np.abs(hess - mat)) <= 1e-8


class TestWholeGridDerivatives:
    def test_matches_node_ops_on_interior(self):
        g = centered_grid(0.05, 7)
        f = ScalarField3.from_function(g, lambda a, b, c: np.sin(a + 2 * b) * np.cos(c))
        grad = f.gradient_fields()
        hess = f.hessian_fields()
        for node in itertools.product(range(1, 6), repeat=3):
            assert tuple(grad[(slice(None),) + node]) == node_gradient(f, node)
            assert np.array_equal(hess[(slice(None), slice(None)) + node], node_hessian(f, node))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_quadratic_hessian_exact_on_interior(self, seed):
        poly = Poly3.random(np.random.default_rng(seed), degrees=(2,))
        f = ScalarField3.from_function(centered_grid(0.125, 7), poly)
        exact = poly.hess(np.zeros(3))
        inner = f.hessian_fields()[:, :, 1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(inner - exact[:, :, None, None, None])) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        degrees=st.sets(st.integers(0, 3), min_size=1).map(tuple),
        extents=st.tuples(st.integers(5, 7), st.integers(5, 7), st.integers(5, 7)),
        h=st.sampled_from([0.05, 0.1, 0.125, 0.3]),
    )
    def test_random_cubics_match_node_ops_bitwise(self, seed, degrees, extents, h):
        poly = Poly3.random(np.random.default_rng(seed), degrees=degrees, cmax=4.0)
        f = ScalarField3.from_function(Grid3((-0.3, -0.2, -0.4), h, extents), poly)
        grad = f.gradient_fields()
        hess = f.hessian_fields()
        for node in itertools.product(*(range(1, n - 1) for n in extents)):
            assert tuple(grad[(slice(None),) + node]) == node_gradient(f, node)
            assert np.array_equal(hess[(slice(None), slice(None)) + node], node_hessian(f, node))

    def test_ring_is_nan(self):
        grid = Grid3((-0.3, -0.2, -0.4), 0.1, (5, 6, 7))
        f = ScalarField3.from_function(grid, lambda a, b, c: a * b * c + a * a)
        for arr in (f.gradient_fields(), f.hessian_fields()):
            lead = arr.ndim - 3
            assert arr.shape[lead:] == grid.shape
            for ax in range(3):
                for face in (0, -1):
                    index = [slice(None)] * arr.ndim
                    index[lead + ax] = face
                    assert np.isnan(arr[tuple(index)]).all(), (arr.ndim, ax, face)
            assert np.isfinite(arr[..., 1:-1, 1:-1, 1:-1]).all()


class TestStencilPlanes:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        extents=st.tuples(st.integers(5, 8), st.integers(5, 8), st.integers(5, 8)),
        h=st.sampled_from([0.05, 0.1, 0.125, 0.3]),
        data=st.data(),
    )
    def test_interior_planes_match_node_ops_bitwise(self, seed, extents, h, data):
        n0, n1, n2 = extents
        first = data.draw(st.integers(1, n0 - 2), label="first")
        stop = data.draw(st.integers(first + 1, n0 - 1), label="stop")
        poly = Poly3.random(np.random.default_rng(seed), degrees=(1, 2, 3), cmax=4.0)
        f = ScalarField3.from_function(Grid3((-0.3, -0.2, -0.4), h, extents), poly)
        shape = (stop - first, n1 - 2, n2 - 2)
        grad = np.full((3,) + shape, np.nan)
        upper = [(a, b) for a in range(3) for b in range(a, 3)]
        hess = {ab: np.full(shape, np.nan) for ab in upper}
        f.stencil_planes(first, stop, grad, hess)
        for p, j, k in itertools.product(*(range(n) for n in shape)):
            node = (first + p, j + 1, k + 1)
            assert [g.hex() for g in grad[:, p, j, k]] == [g.hex() for g in node_gradient(f, node)]
            want = node_hessian(f, node)
            for a, b in upper:
                assert hess[a, b][p, j, k].hex() == want[a, b].hex(), (node, a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        extents=st.tuples(st.integers(5, 7), st.integers(5, 7), st.integers(5, 7)),
        h=st.sampled_from([1e-4, 0.05, 0.1, 0.125, 0.3]),
    )
    def test_node_ops_match_term_by_term_stencil_bitwise(self, seed, extents, h):
        poly = Poly3.random(np.random.default_rng(seed), degrees=(1, 2, 3), cmax=4.0)
        f = ScalarField3.from_function(Grid3((-0.3, -0.2, -0.4), h, extents), poly)
        for node in itertools.product(*(range(1, n - 1) for n in extents)):
            got, want = f.fd_gradient(node), node_gradient(f, node)
            assert all(type(g) is float for g in got)
            assert [g.hex() for g in got] == [g.hex() for g in want], node
            got, want = f.fd_hessian(node), node_hessian(f, node)
            assert got.shape == (3, 3)
            assert [g.hex() for g in got.ravel()] == [g.hex() for g in want.ravel()], node


class TestComplexWirtinger:
    def test_z2_modulus_squared(self):
        f = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: b * b + c * c)
        for node in [(1, 1, 1), (3, 3, 3), (5, 2, 4)]:
            _, lap, _ = f.complex_wirtinger(node)
            assert lap == 1.0

    def test_re_z2(self):
        f = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: b)
        dz2, lap, mix = f.complex_wirtinger((3, 3, 3))
        assert dz2 == 0.5 + 0.0j
        assert lap == 0.0 and mix == 0.0

    def test_xi1_xi3_mixed(self):
        f = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: a * c)
        _, _, mix = f.complex_wirtinger((3, 3, 3))
        assert mix == 0.5j

    def test_field_level_agreement(self):
        f = ScalarField3.from_function(
            centered_grid(0.1, 7), lambda a, b, c: a * b + np.sin(c) * b
        )
        dz2, lap, mix = f.wirtinger_fields()
        node = (3, 4, 2)
        dn, ln, mn = f.complex_wirtinger(node)
        assert abs(dz2[node] - dn) <= 1e-14
        assert abs(lap[node] - ln) <= 1e-14
        assert abs(mix[node] - mn) <= 1e-14


class TestConvergenceOrder:
    def test_observed_order_at_least_1_9(self):
        def fn(a, b, c):
            return np.sin(a + 0.5 * b) * np.cos(c) + np.exp(0.3 * c)

        def exact_grad():
            return np.array([math.cos(0.0), 0.5 * math.cos(0.0), 0.3])

        errors = []
        for h in (0.1, 0.05, 0.025):
            f = ScalarField3.from_function(centered_grid(h, 9), fn)
            g = np.array(f.fd_gradient((4, 4, 4)))
            hess = f.fd_hessian((4, 4, 4))
            e_grad = np.max(np.abs(g - exact_grad()))
            # d2/dxi1 dxi2 of sin(a + b/2)cos(c) at 0 is -0.5*sin(0) = 0,
            # d2/dxi1^2 is -sin(0) = 0; use xi3 entries which are nonzero
            e_hess = abs(hess[2, 2] - (-1.0 * math.cos(0.0) * math.sin(0.0) + 0.09))
            errors.append(max(e_grad, e_hess))
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(coarse / fine)
            assert order >= 1.9


class TestSerialization:
    def test_stable_sum_matches_fsum(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(1000) * 10.0**rng.integers(-8, 8, size=1000)
        assert stable_sum(vals) == math.fsum(vals.tolist())

    @pytest.mark.parametrize(
        "vals, streamed",
        [
            ([1.0, -3.5e-200, 2.0**-900], False),  # extracted in several passes
            # two values, so sigma = 2^(e + bitlen(4)) = 2^(e + 3) for max < 2^e
            ([2.0**1019, -1.0], False),  # sigma = 2^1023
            ([2.0**1020, -1.0], True),  # sigma would be 2^1024
            ([2.0**-973, 2.0**-1000], False),  # sigma * 2^-53 = 2^-1022, the least normal
            ([2.0**-975, 2.0**-1000], True),  # sigma * 2^-53 would be 2^-1024
            ([1.0, 2.0**-1000], True),  # the second pass's sigma is too small
            ([1.0, np.nan], True),
            ([-np.inf, 1.0], True),
            ([0.0, -0.0], False),  # no nonzero value: fsum of one zero
            ([-0.0, -0.0], False),
            ([], False),
        ],
    )
    def test_fsum_streams_the_values_only_where_extraction_cannot(self, vals, streamed):
        # the extraction hands math.fsum a list of pass sums, the fallback a
        # memoryview of the values themselves
        want = math.fsum(vals)
        with mock.patch.object(fields.math, "fsum", wraps=math.fsum) as spy:
            got = stable_sum(np.array(vals, dtype=np.float64))
        (arg,), _ = spy.call_args
        assert isinstance(arg, memoryview) is streamed
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)

    @pytest.mark.parametrize(
        "vals",
        [
            [1.0, 2.0**-53],  # a tie: rounds to the even 1.0
            [1.0, 2.0**-53, 2.0**-160],  # just past the tie: rounds up
            [1.0 + 2.0**-52, 2.0**-53],  # a tie: rounds to the even 1 + 2^-51
            [1e100, 1.0, -1e100],
            [2.0**-1074, -(2.0**-1074), 2.0**-1074],
        ],
    )
    def test_ties_and_cancellation_round_as_fsum(self, vals):
        got = np.float64(stable_sum(np.array(vals)))
        assert got.view(np.int64) == np.float64(math.fsum(vals)).view(np.int64)

    def test_streamed_sum_keeps_the_opposite_infinities_error(self):
        vals = np.zeros(49159)
        vals[5] = np.inf
        vals[-1] = -np.inf
        with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
            math.fsum(vals.tolist())
        with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
            stable_sum(vals)


# sizes 0, 1 and 2^k - 3 .. 2^k + 1 up to 2^16 + 1
SUM_SIZES = sorted({0, 1} | {2**k + d for k in range(2, 17) for d in range(-3, 2)})


def sum_outcome(sum_fn, vals):
    """sum_fn(vals)'s bits as an int, or its exception's type and message."""
    try:
        return int(np.float64(sum_fn(vals)).view(np.int64))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestStableSumIsFsum:
    """stable_sum against math.fsum on this interpreter: the same bits, or
    the same exception."""

    @staticmethod
    def check(vals):
        assert sum_outcome(stable_sum, vals) == sum_outcome(math.fsum, vals.tolist())

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.sampled_from(SUM_SIZES),
        seed=st.integers(0, 2**32 - 1),
        low=st.floats(-300.0, 300.0),
        span=st.floats(0.0, 600.0),
        subnormal=st.sampled_from([0.0, 0.01, 0.5]),
        cancel=st.booleans(),
    )
    def test_mixed_magnitudes(self, size, seed, low, span, subnormal, cancel):
        # magnitudes 10^low .. 10^(low + span) within 1e-300 .. 1e300, some
        # values replaced by subnormals, and optionally each odd value the
        # negation of an even one, shuffled, so whole pairs cancel
        rng = np.random.default_rng(seed)
        high = min(low + span, 300.0)
        vals = rng.standard_normal(size) * 10.0 ** rng.uniform(low, high, size)
        tiny = rng.random(size) < subnormal
        vals[tiny] = rng.integers(-(2**52), 2**52, size=int(tiny.sum())) * 2.0**-1074
        if cancel:
            vals[1::2] = -vals[0 : size - 1 : 2]
            vals = rng.permutation(vals)
        self.check(vals)

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.sampled_from(SUM_SIZES),
        seed=st.integers(0, 2**32 - 1),
        negative=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_all_zero_input_keeps_the_sign_of_fsums_zero(self, size, seed, negative):
        rng = np.random.default_rng(seed)
        self.check(np.where(rng.random(size) < negative, -0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from(SUM_SIZES[1:]),
        seed=st.integers(0, 2**32 - 1),
        log2_scale=st.floats(-3.0, 3.0),
        mixed_signs=st.booleans(),
    )
    def test_maxima_near_the_overflow_bound(self, size, seed, log2_scale, mixed_signs):
        # values up to scale * 2^1023 / size: sigma stays within 2^1023 for
        # scale below about 1/4, and the sum itself overflows above about 2
        rng = np.random.default_rng(seed)
        top = min(2.0**log2_scale / size, 1.99)
        vals = rng.uniform(0.5, 1.0, size) * math.ldexp(top, 1023)
        if mixed_signs:
            vals *= rng.choice([-1.0, 1.0], size)
        self.check(vals)


def per_point_bilinear(g, x, y):
    """One-point bilinear reference: the scalar form of DiscField.sample,
    raising DomainError where sample gives NaN."""
    n = g.values.shape[0]
    u = x / g.spacing + g.half
    v = y / g.spacing + g.half
    i = math.floor(u)
    j = math.floor(v)
    if i == -1 and u >= -1e-9:
        i = 0
    if j == -1 and v >= -1e-9:
        j = 0
    if i == n - 1 and u <= n - 1 + 1e-9:
        i = n - 2
    if j == n - 1 and v <= n - 1 + 1e-9:
        j = n - 2
    if not (0 <= i <= n - 2 and 0 <= j <= n - 2):
        raise DomainError("outside sampled square")
    fx, fy = u - i, v - j
    cell = g.values[i : i + 2, j : j + 2]
    if not np.isfinite(cell).all():
        raise DomainError("touches undefined samples")
    return float(
        cell[0, 0] * (1.0 - fx) * (1.0 - fy)
        + cell[1, 0] * fx * (1.0 - fy)
        + cell[0, 1] * (1.0 - fx) * fy
        + cell[1, 1] * fx * fy
    )


def _log_cap_field():
    # NaN outside |z| < 1; coarse, so drawn points reach every region
    return DiscField.from_function(1.0 / 16, lambda x, y: 0.5 * np.log(1.0 - x * x - y * y))


def _inf_corner_field():
    # smallest square: a quarter of its cells touch the inf node, and its
    # edge cells are finite, so the snap band decides their values
    vals = np.add.outer(np.arange(5.0), 0.5 * np.arange(5.0))
    vals[3, 2] = np.inf
    return DiscField(0.25, vals)


SAMPLER_FIELDS = {"log_cap": _log_cap_field(), "inf_corner": _inf_corner_field()}


def _cell_coordinates(rng, n, size):
    """Coordinates in cell units, mixed in equal shares: anywhere in the
    square +-2 cells, exact nodes, and inside or just past the 1e-9 snap
    band at the first and the last node."""
    kinds = [
        rng.uniform(-2.0, n + 1.0, size),
        rng.integers(-2, n + 2, size).astype(float),
        -rng.uniform(0.0, 2e-9, size),
        n - 1 + rng.uniform(0.0, 2e-9, size),
    ]
    return np.choose(rng.integers(0, len(kinds), size), kinds)


class TestDiscField:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SAMPLER_FIELDS)), seed=st.integers(0, 2**32 - 1))
    def test_sample_matches_per_point_reference(self, name, seed):
        g = SAMPLER_FIELDS[name]
        rng = np.random.default_rng(seed)
        n = g.values.shape[0]
        xs = (_cell_coordinates(rng, n, 400) - g.half) * g.spacing
        ys = (_cell_coordinates(rng, n, 400) - g.half) * g.spacing
        got = g.sample(xs, ys)
        assert got.shape == xs.shape
        for x, y, s in zip(xs.tolist(), ys.tolist(), got.tolist()):
            try:
                expected = per_point_bilinear(g, x, y)
            except DomainError:
                assert math.isnan(s)
                with pytest.raises(DomainError):
                    g.value((x, y))
                continue
            assert s == expected
            assert g.value((x, y)) == expected

    def test_inside_mask_and_node_values(self):
        g = DiscField.from_function(1.0 / 64, lambda x, y: x * x + y * y)
        assert g.values[g.half, g.half] == 0.0
        x0, y0 = disc_node_coords(g, (g.half + 3, g.half - 2))
        assert g.values[g.half + 3, g.half - 2] == x0 * x0 + y0 * y0
        count = int(disc_inside(g).sum())
        # lattice-point count inside |z| < 1 tracks area / h^2 with an
        # error bounded by a perimeter term
        expected = math.pi / g.spacing**2
        assert abs(count - expected) <= 8.0 / g.spacing

    def test_bilinear_linear_exact(self):
        g = DiscField.from_function(1.0 / 32, lambda x, y: x + 2 * y)
        assert abs(g.value((0.11, -0.23)) - (0.11 - 0.46)) <= 1e-12
        assert abs(g.value(complex(0.3, 0.4)) - (0.3 + 0.8)) <= 1e-12

    def test_undefined_region_raises(self):
        def cap(x, y):
            return 0.5 * np.log(1.0 - x * x - y * y)

        g = DiscField.from_function(1.0 / 64, cap)
        assert g.value((0.0, 0.0)) == 0.0
        with pytest.raises(DomainError):
            g.value((1.02, 0.0))

    def test_laplacian_quadratic_and_harmonic(self):
        quad = DiscField.from_function(1.0 / 64, lambda x, y: x * x + y * y)
        lap = quad.laplacian_field()
        interior = np.isfinite(lap)
        assert interior[1:-1, 1:-1].all()
        assert np.max(np.abs(lap[interior] - 4.0)) <= 1e-9
        harm = DiscField.from_function(1.0 / 64, lambda x, y: x * x - y * y)
        lap_h = harm.laplacian_field()
        assert np.max(np.abs(lap_h[np.isfinite(lap_h)])) <= 1e-9


def full_mesh_values(spacing, fn):
    """Reference sampler: fn on full (m, m) ij meshes, two nodes past the
    unit circle, which the sparse meshes of DiscField.from_function must
    match bit for bit."""
    half = int(math.ceil(1.0 / spacing)) + 2
    coords = spacing * np.arange(-half, half + 1)
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(np.asarray(fn(gx, gy), dtype=np.float64), gx.shape).copy()
    vals[~np.isfinite(vals)] = np.nan
    return vals


def _cantor_potential_field():
    measure = potential.frostman_measure(potential.build_square_cantor(1.0, 3))
    pot = potential.GreenPotential(measure)
    return potential.potential_field(pot, 1.0 / 128.0)


class TestFromFunctionSparseMeshes:
    def test_one_axis_result_broadcasts_to_square(self):
        g = DiscField.from_function(1.0 / 32, lambda x, y: x)
        assert g.values.shape == (g.half * 2 + 1,) * 2
        assert np.array_equal(g.values, np.broadcast_to(g.axis()[:, None], g.values.shape))
        g = DiscField.from_function(1.0 / 32, lambda x, y: 2.5)
        assert g.values.shape == (g.half * 2 + 1,) * 2 and (g.values == 2.5).all()

    def test_fn_gets_sparse_ij_meshes(self):
        seen = []

        def fn(x, y):
            seen.append((x, y))
            return x + y

        DiscField.from_function(1.0 / 32, fn)
        [(x, y)] = seen
        n = 2 * (32 + 2) + 1
        assert x.shape == (n, 1) and y.shape == (1, n)
        assert np.array_equal(x.ravel(), y.ravel())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: staircase.hartogs_ball_domain(1.0 / 128.0).cap,
            lambda: staircase.hartogs_staircase(alpha1="2/3", spacing=1.0 / 128.0).cap,
            lambda: potential.zygmund_domain(1.0, 3, spacing=1.0 / 128.0).cap,
            _cantor_potential_field,
        ],
        ids=["ball", "staircase", "cantor", "potential_field"],
    )
    def test_shipped_fields_bitwise_equal_on_full_meshes(self, build, monkeypatch):
        calls = []
        sample = DiscField.from_function.__func__

        def spy(cls, spacing, fn):
            calls.append((spacing, fn))
            return sample(cls, spacing, fn)

        monkeypatch.setattr(DiscField, "from_function", classmethod(spy))
        field = build()
        (args,) = calls
        want = full_mesh_values(*args)
        assert field.values.shape == want.shape
        assert np.isnan(want).any() and np.isfinite(want).any()
        assert np.array_equal(field.values.view(np.int64), want.view(np.int64))


def full_grid_values(grid, fn):
    """Reference sampler: fn on full ij meshes of the grid shape, which the
    sparse meshes of ScalarField3.from_function must match bit for bit."""
    x1, x2, x3 = np.meshgrid(grid.axis(0), grid.axis(1), grid.axis(2), indexing="ij")
    return np.broadcast_to(np.asarray(fn(x1, x2, x3), dtype=np.float64), grid.shape).copy()


class TestGridFromFunctionSparseMeshes:
    def test_fn_gets_sparse_ij_meshes(self):
        grid = Grid3((-0.3, -0.2, -0.4), 0.1, (5, 6, 7))
        x1, x2, x3 = grid.mesh()
        assert (x1.shape, x2.shape, x3.shape) == ((5, 1, 1), (1, 6, 1), (1, 1, 7))
        for k, x in enumerate((x1, x2, x3)):
            assert np.array_equal(x.ravel(), grid.axis(k))
        f = ScalarField3.from_function(grid, lambda a, b, c: b)
        assert np.array_equal(f.values, np.broadcast_to(x2, grid.shape))

    @pytest.mark.parametrize("model", ["ball", "g2"])
    def test_levi_check_fields_bitwise_equal_on_full_meshes(self, model, tmp_path, monkeypatch):
        calls = []
        sample = ScalarField3.from_function.__func__

        def spy(cls, grid, fn):
            field = sample(cls, grid, fn)
            calls.append((grid, fn, field))
            return field

        monkeypatch.setattr(ScalarField3, "from_function", classmethod(spy))
        config = {"scenario": "levi-check", "outdir": str(tmp_path), "params": {"model": model}}
        if model == "g2":
            config["expect_violation"] = True
        report, _ = cli.run_scenario(config)
        assert report["passed"] and calls
        for grid, fn, field in calls:
            want = full_grid_values(grid, fn)
            assert np.array_equal(field.values.view(np.int64), want.view(np.int64))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        degrees=st.sets(st.integers(0, 3), min_size=1).map(tuple),
        extents=st.tuples(st.integers(5, 9), st.integers(5, 9), st.integers(5, 9)),
    )
    def test_random_cubics_bitwise_equal_on_full_meshes(self, seed, degrees, extents):
        poly = Poly3.random(np.random.default_rng(seed), degrees=degrees, cmax=4.0)
        grid = Grid3((-0.3, -0.2, -0.4), 0.1, extents)
        got = ScalarField3.from_function(grid, poly).values
        assert np.array_equal(got.view(np.int64), full_grid_values(grid, poly).view(np.int64))


def one_circle_mean(g, center, r):
    """circle_mean as it sampled one circle per call, verbatim for a complex
    centre: the bitwise oracle of the array form."""
    cx, cy = center.real, center.imag
    theta = 2.0 * math.pi * np.arange(fields._N_THETA) / fields._N_THETA
    xs = cx + r * np.cos(theta)
    ys = cy + r * np.sin(theta)
    samples = g.sample(xs, ys)
    if np.isnan(samples).any():
        raise DomainError(f"circle |z - ({cx}, {cy})| = {r} leaves the finite sample set")
    return math.fsum(samples.tolist()) / fields._N_THETA


class TestCircleMean:
    def test_constant_exact(self):
        g = DiscField.from_function(1.0 / 32, lambda x, y: 2.5 + 0.0 * x)
        assert circle_mean(g, 0j, 0.3) == 2.5

    def test_harmonic_mean_value(self):
        g = DiscField.from_function(1.0 / 256, lambda x, y: x)
        assert abs(circle_mean(g, 0j, 0.3)) <= 1e-10

    def test_radius_squared(self):
        g = DiscField.from_function(1.0 / 1024, lambda x, y: x * x + y * y)
        assert circle_mean(g, 0j, 0.3) == pytest.approx(0.09, abs=1e-6)

    def test_rotation_invariance_axis_swap(self):
        g = DiscField.from_function(1.0 / 128, lambda x, y: np.hypot(x, y) ** 3)
        swapped = DiscField(g.spacing, np.asarray(g.values).T.copy())
        m1 = circle_mean(g, 0j, 0.31)
        m2 = circle_mean(swapped, 0j, 0.31)
        assert abs(m1 - m2) <= 1e-8

    def test_circle_exits_domain(self):
        g = DiscField.from_function(1.0 / 64, lambda x, y: x + y)
        # the padded square ends at 1 + 2/64; the circle reaches 1.1
        with pytest.raises(DomainError):
            circle_mean(g, complex(0.8, 0.0), 0.3)

    def test_offcenter_harmonic(self):
        g = DiscField.from_function(1.0 / 512, lambda x, y: x * x - y * y)
        c = complex(0.1, -0.05)
        expected = c.real**2 - c.imag**2
        assert circle_mean(g, c, 0.2) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("spacing", [1.0 / 128, 1.0 / 300])
    def test_array_of_centres_matches_one_call_per_centre(self, spacing):
        # each mean is its own circle's fsum: bit for bit the scalar call,
        # whatever the other centres and the shape they come in
        g = DiscField.from_function(
            spacing, lambda x, y: 0.5 * np.log1p(-(x * x + y * y)) + np.sin(7.0 * x) * y
        )
        rng = np.random.default_rng(7)
        for r in rng.uniform(0.004, 0.05, 4).tolist():
            rho = rng.uniform(0.0, 0.9, (3, 5))
            centres = rho * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (3, 5)))
            got = circle_mean(g, centres, r)
            assert got.shape == (3, 5)
            want = [one_circle_mean(g, c, r) for c in centres.ravel().tolist()]
            assert [float(m).hex() for m in got.ravel()] == [m.hex() for m in want]
            one = [circle_mean(g, c, r) for c in centres.ravel().tolist()]
            assert [m.hex() for m in one] == [m.hex() for m in want]
        with pytest.raises(DomainError, match="leaves the finite sample set"):
            circle_mean(g, np.append(centres.ravel(), 0.98 + 0.0j), 0.03)
