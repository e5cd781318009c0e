import csv
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import levicheck.levi as levi_module
from helpers_poly import (
    Poly3,
    fit_positive_scale,
    node_derivatives,
    node_gradient,
    node_hessian,
    t_matrix,
)
from test_potential import with_workers
from levicheck.cli import run_scenario
from levicheck.fields import (
    DiscField,
    DomainError,
    Grid3,
    ParameterError,
    ScalarField3,
    StencilError,
    wirtinger_parts,
)
from levicheck.levi import (
    _SUBSAMPLE,
    _abs2,
    _dual_gap,
    _log_weights,
    _unit_square_log_moment,
    _verify,
    ConsistencyError,
    Defining2,
    LeviScan,
    DegeneratePointError,
    GreenIdentityReport,
    delta_tau,
    delta_tau_fields,
    graph_levi_fields,
    green_identity_report,
    levi_condition_2d,
    levi_scan,
    slice_graph,
    slice_ratio_min,
    tau_fields,
)


def centered_grid(h, n):
    half = (n - 1) // 2
    return Grid3((-half * h, -half * h, -half * h), h, (n, n, n))


# -- oracle: the dual-route check as it was before the pooled passes returned
# one result per block, kept verbatim (accumulate per block, merge by max)

_DUAL_TOL = levi_module._DUAL_TOL


class _DualCheck:
    """Agreement of two routes, accumulated block by block.

    add(a, b) merges max|a| and max|a - b| over the entries where both are
    finite, merge(other) another check's maxima; verify(where) then tests
    the merged worst against the global scale 1 + max|a|.  Max is exact, so
    the verdict depends neither on the blocking nor on the merge order.
    Testing each block against its own, smaller scale would be stricter and
    could raise where the whole array passes.
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

    def merge(self, other: "_DualCheck") -> None:
        self.peak = max(self.peak, other.peak)
        self.worst = max(self.worst, other.worst)

    def verify(self, where: str) -> None:
        scale = 1.0 + self.peak
        if self.worst > _DUAL_TOL * scale:
            raise ConsistencyError(
                f"{where}: complex and T-form differ by {self.worst:.3e} (scale {scale:.3e})",
                where=where,
                worst=self.worst,
                scale=scale,
            )


def whole_grid_levi_fields(phi):
    """graph_levi_fields as it was before the plane blocks, kept verbatim as
    the bitwise oracle for the blocked version, except that its derivative
    arrays come node by node from the term-by-term stencil of helpers_poly
    (bitwise equal to the whole-grid stencils, and independent of them)."""
    g, hess = node_derivatives(phi)
    dz2, lap, mix = wirtinger_parts(g, hess)
    phi_y1 = g[0]
    direct = (
        -0.25 * hess[0, 0] * _abs2(dz2)
        + 0.5 * np.real(1j * (1.0 - 1j * phi_y1) * dz2 * mix)
        - 0.25 * (1.0 + phi_y1**2) * lap
    )
    tau1, tau2 = tau_fields(g)
    via_operator = -delta_tau_fields(hess, tau1, tau2)
    check = _DualCheck()
    check.add(direct, via_operator)
    check.verify("graph_levi_fields")
    return direct


def block_sizes(extents):
    """_BLOCK values that cut the interior xi1-planes into slabs of one plane,
    of two, of a count that does not divide them, and the shipped value."""
    n0, n1, n2 = extents
    plane = n1 * n2
    ragged = next((k for k in range(3, n0 - 2) if (n0 - 2) % k), 2)
    return {"one": 1, "two": 2 * plane, "ragged": ragged * plane, "shipped": levi_module._BLOCK}


# the unpatched stencil and dual forms, for shift_t_form to wrap
_STENCIL_PLANES, _DELTA_TAU_FORMS = ScalarField3.stencil_planes, levi_module._delta_tau_forms


def shift_t_form(monkeypatch, plane, eps):
    """Patch _delta_tau_forms to add eps to the T-form of each call that
    covers xi1-plane `plane`: the planes ScalarField3.stencil_planes last
    wrote on the calling thread (whichever thread runs that slab), or, with
    no stencil run on that thread, every plane."""
    current = threading.local()

    def stencil_planes(field, first, stop, grad=None, hess=None):
        current.planes = range(first, stop)
        _STENCIL_PLANES(field, first, stop, grad, hess)

    def forms(hess, tau1, tau2, *parts):
        complex_form, t_form = _DELTA_TAU_FORMS(hess, tau1, tau2, *parts)
        if plane in getattr(current, "planes", [plane]):
            t_form = t_form + eps
        return complex_form, t_form

    monkeypatch.setattr(ScalarField3, "stencil_planes", stencil_planes)
    monkeypatch.setattr(levi_module, "_delta_tau_forms", forms)


class TestTMatrix:
    def test_t_matrix_entries(self):
        t = t_matrix(1 + 2j, 3 - 1j)
        # cross = conj(tau1)*tau2 = (1-2j)(3-1j) = 1 - 7j
        assert t[0, 0] == 5.0
        assert t[1, 1] == 2.5 and t[2, 2] == 2.5
        assert t[0, 1] == -7.0
        assert t[0, 2] == -1.0
        assert t[1, 2] == 0.0
        assert np.array_equal(t, t.T)


class TestLeviCondition2d:
    def test_ball_at_rim_point(self):
        assert levi_condition_2d(Defining2.ball(), (1.0, 0.0)) == 1.0

    @pytest.mark.parametrize(
        "point",
        [(1.0, 0.5j), (0.2 + 0.3j, -0.7), (1 / math.sqrt(2), 1j / math.sqrt(2))],
    )
    def test_ball_closed_form(self, point):
        # for |z1|^2 + |z2|^2 - 1 the quantity reduces to |z1|^2 + |z2|^2
        expected = abs(point[0]) ** 2 + abs(point[1]) ** 2
        assert levi_condition_2d(Defining2.ball(), point) == pytest.approx(expected, abs=1e-14)

    def test_g2_model_value(self):
        assert levi_condition_2d(Defining2.g2_model(), (0.0, 0.0)) == -0.25

    def test_degenerate_gradient_raises(self):
        with pytest.raises(DegeneratePointError):
            levi_condition_2d(Defining2.ball(), (0.0, 0.0))

    def test_hartogs_ball_closed_form(self):
        rho = Defining2.hartogs_ball()
        for z1, z2 in [(0.5, 0.3), (0.2 - 0.1j, 0.4j), (0.9, -0.6 + 0.2j)]:
            got = levi_condition_2d(rho, (z1, z2))
            expected = 1.0 / (8.0 * abs(z1) ** 2 * (1.0 - abs(z2) ** 2) ** 2)
            assert got == pytest.approx(expected, rel=1e-12)
            assert got > 0.0

    def test_hartogs_ball_errors(self):
        rho = Defining2.hartogs_ball()
        with pytest.raises(DegeneratePointError):
            levi_condition_2d(rho, (0.0, 0.5))
        with pytest.raises(DomainError):
            levi_condition_2d(rho, (0.5, 1.2))


class TestTauOfPhi:
    def test_zero_field(self):
        phi = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: 0.0 * a)
        tau1, tau2 = tau_fields(phi.fd_gradient((3, 3, 3)))
        assert tau1 == 0.0 and tau2 == 0.5

    def test_linear_in_y1(self):
        phi = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: a)
        tau1, tau2 = tau_fields(phi.fd_gradient((3, 3, 3)))
        assert tau1 == 0.0
        assert tau2 == 0.5 + 0.5j

    def test_linear_in_re_z2(self):
        phi = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: b)
        tau1, tau2 = tau_fields(phi.fd_gradient((3, 3, 3)))
        assert tau1 == -0.25
        assert tau2 == 0.5

    def test_re_tau2_always_half(self):
        phi = ScalarField3.from_function(
            centered_grid(0.1, 9), lambda a, b, c: np.sin(a * b) + np.cos(c) * b
        )
        t1, t2 = tau_fields(phi.gradient_fields())
        finite = np.isfinite(t2.real)
        assert np.max(np.abs(t2.real[finite] - 0.5)) == 0.0


class TestDeltaTau:
    def test_pure_y1_term(self):
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: a * a)
        assert delta_tau(v, (1.0, 0.0), (3, 3, 3)) == 2.0

    def test_pure_z2_term(self):
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: b * b + c * c)
        assert delta_tau(v, (0.0, 1.0), (3, 3, 3)) == 1.0

    def test_mixed_term_re_z2(self):
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: a * b)
        assert delta_tau(v, (1.0, 1.0), (3, 3, 3)) == 0.0

    def test_mixed_term_im_z2(self):
        # v = y1 * Im z2 with tau = (1, 1): the mixed Wirtinger derivative is
        # i/2, so the operator value is 2 Re(i * (i/2)) = -1
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: a * c)
        assert delta_tau(v, (1.0, 1.0), (3, 3, 3)) == -1.0

    def test_field_form_matches_node_form(self):
        v = ScalarField3.from_function(
            centered_grid(0.05, 7), lambda a, b, c: np.sin(a) * b + c * c * a
        )
        tau1 = np.full(v.grid.shape, 0.3 - 0.2j)
        tau2 = np.full(v.grid.shape, 0.5 + 0.1j)
        arr = delta_tau_fields(v.hessian_fields(), tau1, tau2)
        node = (3, 2, 4)
        # the node's T-form on the term-by-term stencil, apart from the library
        t = t_matrix(0.3 - 0.2j, 0.5 + 0.1j)
        hess = node_hessian(v, node)
        upper = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
        assert arr[node] == pytest.approx(sum(t[e] * hess[e] for e in upper), abs=1e-13)
        assert delta_tau(v, (0.3 - 0.2j, 0.5 + 0.1j), node) == pytest.approx(arr[node], abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        t1=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        t2=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_dual_forms_agree_on_random_quadratics(self, t1, t2, seed):
        rng = np.random.default_rng(seed)
        poly = Poly3.random(rng, degrees=(2,))
        v = ScalarField3.from_function(centered_grid(0.125, 5), poly)
        pair = (complex(*t1), complex(*t2))
        value = delta_tau(v, pair, (2, 2, 2))
        # independent evaluation from the exact Hessian and the T table
        hess = poly.hess(np.zeros(3))
        t = t_matrix(*pair)
        expected = (
            t[0, 0] * hess[0, 0]
            + t[1, 1] * hess[1, 1]
            + t[2, 2] * hess[2, 2]
            + t[0, 1] * hess[0, 1]
            + t[0, 2] * hess[0, 2]
        )
        assert value == pytest.approx(expected, abs=1e-9 * (1 + abs(expected)))


class TestGraphLevi:
    def test_z2_squared_negative_quarter(self):
        phi = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: b * b + c * c)
        assert graph_levi_fields(phi)[3, 3, 3] == -0.25

    def test_zero_field(self):
        phi = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: 0.0 * a)
        assert graph_levi_fields(phi)[3, 3, 3] == 0.0

    def test_minus_z2_squared_positive_quarter(self):
        phi = ScalarField3.from_function(
            centered_grid(0.0625, 7), lambda a, b, c: -(b * b) - c * c
        )
        assert graph_levi_fields(phi)[3, 3, 3] == 0.25

    def test_equals_minus_delta_tau(self):
        phi = ScalarField3.from_function(
            centered_grid(0.05, 9), lambda a, b, c: np.sin(a + b) * np.cos(c) * 0.3
        )
        levi = graph_levi_fields(phi)
        for node in [(2, 3, 4), (4, 4, 4), (6, 2, 5)]:
            lhs = levi[node]
            rhs = -delta_tau(phi, tau_fields(node_gradient(phi, node)), node)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_ball_cap_nonnegative_on_grid(self):
        # cap phi = (1 - y1^2 - |z2|^2)/2 - 1/2; its graph bounds a convex body
        grid = centered_grid(0.05, 13)
        phi = ScalarField3.from_function(
            grid, lambda a, b, c: 0.5 * (1.0 - a * a - b * b - c * c) - 0.5
        )
        vals = graph_levi_fields(phi)
        finite = np.isfinite(vals)
        assert finite[1:-1, 1:-1, 1:-1].all()
        assert np.min(vals[finite]) > 0.0
        # closed form at the center node: (1 + y1^2)/8 + |z2|^2/16 = 1/8
        center = (6, 6, 6)
        assert vals[center] == pytest.approx(0.125, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fd_route_matches_symbolic_route(self, seed):
        rng = np.random.default_rng(seed)
        poly = Poly3.random(rng, degrees=(2, 3))
        h = 1e-4
        phi = ScalarField3.from_function(centered_grid(h, 7), poly)
        fd_value = graph_levi_fields(phi)[3, 3, 3]
        rho = Defining2.from_graph_partials(poly.grad, poly.hess)
        symbolic = levi_condition_2d(rho, (0.0, 0.0))
        assert abs(fd_value - symbolic) <= 1e-8


class TestPlaneBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("block", ["one", "two", "ragged", "shipped"])
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        cap=st.booleans(),
        extents=st.tuples(st.integers(5, 11), st.integers(5, 11), st.integers(5, 11)),
        h=st.sampled_from([0.05, 0.1, 0.125]),
    )
    def test_blocked_levi_fields_match_whole_grid_bitwise(
        self, block, workers, seed, cap, extents, h
    ):
        if cap:
            fn = lambda a, b, c: np.sqrt(4.0 - a * a - b * b - c * c)  # noqa: E731
        else:
            fn = Poly3.random(np.random.default_rng(seed), degrees=(1, 2, 3))
        phi = ScalarField3.from_function(Grid3((-0.3, -0.2, -0.4), h, extents), fn)
        want = whole_grid_levi_fields(phi)
        with mock.patch.object(levi_module, "_BLOCK", block_sizes(extents)[block]):
            with with_workers(workers):
                got = graph_levi_fields(phi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_threads_keep_their_own_buffers(self, workers):
        # 29 one-plane slabs over up to five threads, more than the cores of a
        # small box; a short switch interval interleaves them at every few
        # bytecodes, so a work buffer two threads shared would mix slabs
        grid = Grid3((-0.4, -0.3, -0.35), 0.025, (31, 23, 27))
        phi = ScalarField3.from_function(grid, Poly3.random(np.random.default_rng(7), (1, 2, 3)))
        want = whole_grid_levi_fields(phi)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(levi_module, "_BLOCK", 1), with_workers(workers):
                got = graph_levi_fields(phi)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def graded_field():
    """A field whose Levi values grow by about e^8 from the first interior
    xi1-plane to the last, so the planes' scales differ widely."""
    grid = Grid3((-1.0, -0.5, -0.5), 0.25, (9, 5, 5))
    return ScalarField3.from_function(grid, lambda a, b, c: np.exp(4.0 * a) * (b * b + c * c))


def dual_scales(phi):
    """The global scale 1 + max|complex form| and each interior plane's own."""
    complex_form = delta_tau_fields(phi.hessian_fields(), *tau_fields(phi.gradient_fields()))
    inner = np.abs(complex_form[1:-1, 1:-1, 1:-1])
    return 1.0 + float(inner.max()), 1.0 + inner.max(axis=(1, 2))


class TestDualCheckAcrossBlocks:
    TOL = levi_module._DUAL_TOL

    @pytest.fixture(autouse=True, params=[1, 2])
    def workers(self, request):
        with with_workers(request.param):
            yield request.param

    def test_whole_array_check_raises_above_its_scale_only(self, monkeypatch):
        phi = graded_field()
        scale, _ = dual_scales(phi)
        hess, (tau1, tau2) = phi.hessian_fields(), tau_fields(phi.gradient_fields())
        shift_t_form(monkeypatch, 1, 0.5 * self.TOL * scale)
        delta_tau_fields(hess, tau1, tau2)
        shift_t_form(monkeypatch, 1, 2.0 * self.TOL * scale)
        with pytest.raises(ConsistencyError) as err:
            delta_tau_fields(hess, tau1, tau2)
        assert err.value.where == "delta_tau_fields"
        assert err.value.scale == scale

    def test_block_over_its_own_scale_but_under_the_global_one_passes(self, monkeypatch):
        phi = graded_field()
        scale, plane_scales = dual_scales(phi)
        quiet = int(np.argmin(plane_scales))
        eps = self.TOL * math.sqrt(plane_scales[quiet] * scale)
        assert self.TOL * plane_scales[quiet] < eps < self.TOL * scale
        want = whole_grid_levi_fields(phi)
        monkeypatch.setattr(levi_module, "_BLOCK", 1)
        # interior plane quiet is xi1-plane quiet + 1, a slab of its own
        shift_t_form(monkeypatch, quiet + 1, eps)
        got = graph_levi_fields(phi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("block", ["one", "two", "ragged", "shipped"])
    def test_block_over_the_global_scale_raises_for_any_blocking(self, monkeypatch, block):
        phi = graded_field()
        scale, _ = dual_scales(phi)
        eps = 2.0 * self.TOL * scale
        monkeypatch.setattr(levi_module, "_BLOCK", block_sizes(phi.grid.extents)[block])
        # every interior plane, so every slab of the blocking holds a shifted one
        for plane in range(1, phi.grid.extents[0] - 1):
            shift_t_form(monkeypatch, plane, eps)
            with pytest.raises(ConsistencyError) as err:
                graph_levi_fields(phi)
            assert err.value.where == "delta_tau_fields"
            assert err.value.scale == scale
            assert err.value.worst > self.TOL * scale


def test_consistency_error_detail_does_not_depend_on_the_workers(monkeypatch):
    # one plane per slab; at two workers xi1-plane 2 is the second thread's
    # first slab, so its over-scale T-form reaches the verdict only through
    # that thread's gap in the block-ordered results
    phi = graded_field()
    scale, _ = dual_scales(phi)
    monkeypatch.setattr(levi_module, "_BLOCK", 1)
    shift_t_form(monkeypatch, 2, 2.0 * levi_module._DUAL_TOL * scale)
    details = []
    for workers in (1, 2):
        with with_workers(workers), pytest.raises(ConsistencyError) as err:
            graph_levi_fields(phi)
        details.append((err.value.where, err.value.worst, err.value.scale))
    assert details[0] == details[1]
    assert details[0][0] == "delta_tau_fields" and details[0][2] == scale


# entries of the arrays the dual-gap test splits into blocks: finite values
# of many magnitudes, values whose difference overflows, and non-finite ones
_GAP_ENTRY = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
)
# b - a per entry over 1 + |a|, around the 1e-9 tolerance
_GAP_SHIFT = st.sampled_from([0.0, 1e-12, -4e-10, 9e-10, -1.1e-9, 3e-9, -1e-6, math.nan, math.inf])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def blocked_pairs(draw):
    """(a, b) pairs, one per block; a block is empty, all non-finite in a, or mixed."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["empty", "non-finite", "mixed"]), max_size=6)):
        n = 0 if kind == "empty" else draw(st.integers(1, 5))
        entry = _NON_FINITE if kind == "non-finite" else _GAP_ENTRY
        a = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
        shift = np.array(draw(st.lists(_GAP_SHIFT, min_size=n, max_size=n)), dtype=float)
        with np.errstate(all="ignore"):
            blocks.append((a, a + shift * (1.0 + np.abs(a))))
    return blocks


def consistency_outcome(check):
    """None if check() passes, else its ConsistencyError's detail and message."""
    try:
        check()
    except ConsistencyError as err:
        return err.where, err.worst, err.scale, str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(blocks=blocked_pairs(), where=st.sampled_from(["delta_tau_fields", "graph_levi_fields"]))
def test_verify_over_gaps_agrees_with_the_accumulating_check(blocks, where):
    # _verify over the blocks' _dual_gaps raises exactly where the check it
    # replaced raises, with the same where, worst and scale

    def oracle():
        check = _DualCheck()
        for a, b in blocks:
            part = _DualCheck()
            if a.size:  # an empty block adds nothing (np.max has no identity)
                part.add(a, b)
            check.merge(part)
        check.verify(where)

    with np.errstate(all="ignore"):
        want = consistency_outcome(oracle)
        got = consistency_outcome(lambda: _verify(where, [_dual_gap(a, b) for a, b in blocks]))
    assert got == want


@pytest.mark.parametrize(
    "a, b, want",
    [
        ([math.inf, 1.0], [math.inf, 1.0], (1.0, 0.0)),
        ([math.inf, -2.0, 1.0], [-math.inf, -1.5, 1.0], (2.0, 0.5)),
        ([math.nan, 3.0], [1.0, math.nan], (0.0, 0.0)),
        ([1.0, -4.0], [1.5, -4.0], (4.0, 0.5)),
        ([], [], (0.0, 0.0)),
    ],
)
def test_dual_gap_is_silent_on_non_finite_entries(a, b, want):
    # inf - inf in the whole-block pass leaks no RuntimeWarning, and the
    # maxima are still those over the entries where both are finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _dual_gap(a, b) == want


# _delta_tau_forms as it stood before its two forms shared their terms,
# kept verbatim as the bitwise oracle of the shared version


def oracle_delta_tau_forms(hess, tau1, tau2):
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


# the forms' inputs: moderate values, any double, the special values, and
# magnitudes whose squares and products overflow or fall subnormal, where
# a regrouped or rescaled product would round differently
_FORM_ENTRY = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585e-308]),
    st.sampled_from([1.5e154, -1e154, 3e-162, -1e-160, 1e300, -1e-300, 3.0, -0.75]),
)


@st.composite
def form_inputs(draw):
    """(hess, tau1, tau2): a mapping or a (3, 3, n) array of Hessian
    entries, and tau arrays of n entries or complex scalars."""
    n = draw(st.integers(1, 12))

    def column(size=n):
        return np.array(draw(st.lists(_FORM_ENTRY, min_size=size, max_size=size)), dtype=float)

    entries = {pair: column() for pair in levi_module._LEVI_ENTRIES}
    if draw(st.booleans()):
        hess = np.full((3, 3, n), np.nan)
        for (a, b), entry in entries.items():
            hess[a, b] = entry
    else:
        hess = entries

    def complex_column(size):
        z = np.empty(size, dtype=complex)
        z.real, z.imag = column(size), column(size)
        return z

    size = draw(st.sampled_from([n, 1]))
    tau1, tau2 = complex_column(size), complex_column(size)
    if size == 1 and draw(st.booleans()):
        tau1, tau2 = complex(tau1[0]), complex(tau2[0])
    return hess, tau1, tau2


class TestDeltaTauFormsKeepTheirBits:
    @settings(max_examples=300, deadline=None)
    @given(inputs=form_inputs())
    def test_shared_terms_match_the_oracle_bitwise(self, inputs):
        # every ConsistencyError worst and scale, and every gap, is read
        # from these two arrays; the graph Levi slab passes wirtinger_parts'
        # mix and lap, the other callers none
        hess, tau1, tau2 = inputs
        with np.errstate(all="ignore"):
            want = oracle_delta_tau_forms(hess, tau1, tau2)
            _, lap, mix = wirtinger_parts(np.zeros((3, 1)), hess)
            for got in (
                levi_module._delta_tau_forms(hess, tau1, tau2),
                levi_module._delta_tau_forms(hess, tau1, tau2, mix, lap),
            ):
                for g, w in zip(got, want):
                    g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
                    assert g.shape == w.shape
                    assert np.array_equal(g.view(np.int64), w.view(np.int64))


class TestLeviScanMemory:
    def test_peak_allocation_near_one_field(self):
        grid = centered_grid(0.005, 97)
        phi = ScalarField3.from_function(
            grid, lambda a, b, c: np.sqrt(1.0 - a * a - b * b - c * c)
        )
        tracemalloc.start()
        try:
            levi_scan(phi, tol=1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * phi.values.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_peak_stays_below_an_eighth_of_the_values(self, workers):
        # the whole-grid counts copied the finite values and built three
        # whole-grid masks, about twice the values' bytes
        grid = centered_grid(0.01, 97)
        values = np.random.default_rng(3).standard_normal(grid.shape)
        values[0], values[:, 0], values[5, 5, 5] = np.nan, np.inf, -np.inf
        scan = LeviScan(phi=ScalarField3(grid, np.zeros(grid.shape)), values=values, tol=0.5)
        with with_workers(workers):
            tracemalloc.start()
            try:
                counts = scan.counts()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert counts == oracle_counts(scan)
        assert peak <= values.nbytes / 8


class TestLeviScan:
    @pytest.mark.parametrize("tol", [-1.0, -5e-324, -math.inf, math.nan])
    def test_tol_below_zero_or_nan_is_rejected(self, tol):
        # the levi-check range already required tol >= 0; the library
        # classified the nodes against any tol
        phi = ScalarField3.from_function(centered_grid(0.1, 7), lambda a, b, c: b * b + c * c)
        with pytest.raises(ParameterError, match="tol must be >= 0"):
            levi_scan(phi, tol=tol)
        with pytest.raises(ParameterError, match="tol must be >= 0"):
            LeviScan(phi=phi, values=phi.values, tol=tol)

    def test_bad_tol_is_rejected_before_the_scan(self):
        phi = ScalarField3.from_function(centered_grid(0.1, 7), lambda a, b, c: b * b + c * c)
        with mock.patch.object(levi_module, "graph_levi_fields") as fields:
            with pytest.raises(ParameterError, match="tol must be >= 0, got -1.0"):
                levi_scan(phi, tol=-1.0)
        fields.assert_not_called()

    def test_scan_of_z2_squared(self):
        grid = centered_grid(0.1, 7)
        phi = ScalarField3.from_function(grid, lambda a, b, c: b * b + c * c)
        scan = levi_scan(phi, tol=1e-6)
        counts = scan.counts()
        assert counts["scanned"] == 5 * 5 * 5
        assert counts["violating"] == counts["scanned"]
        assert counts["pseudoconvex_ok"] == 0 and counts["near_zero"] == 0
        assert scan.least()[0] == pytest.approx(-0.25, abs=1e-12)

    def test_least_without_a_finite_node_is_nan(self):
        # NaN at the first node, not that node's +inf, so a check of it fails
        grid = centered_grid(0.1, 5)
        phi = ScalarField3.from_function(grid, lambda a, b, c: b * b + c * c)
        scan = LeviScan(phi=phi, values=np.full(grid.shape, np.inf), tol=0.0)
        least, where = scan.least()
        assert math.isnan(least)
        assert where == [float(grid.axis(k)[0]) for k in range(3)]

    def test_csv_and_scan_table(self, tmp_path):
        grid = centered_grid(0.25, 5)
        phi = ScalarField3.from_function(grid, lambda a, b, c: b * b + c * c)
        scan = levi_scan(phi, tol=1e-9)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "xi1,xi2,xi3,levi_value,classification"
        assert len(lines) == 1 + 3 * 3 * 3
        # the same scan through levi-check, whose g2 model is this phi
        params = {"model": "g2", "spacing": 0.25, "extent": 5, "tol": 1e-9}
        config = {"scenario": "levi-check", "params": params, "outdir": str(tmp_path / "run")}
        summary = run_scenario(config)[0]["tables"]["scan"]
        assert (tmp_path / "run" / "levi_nodes.csv").read_bytes() == path.read_bytes()
        assert set(summary) == {
            "min",
            "argmin",
            "tol",
            "scanned",
            "near_zero",
            "violating",
            "pseudoconvex_ok",
        }
        assert summary["min"] == pytest.approx(-0.25 - 0.25 * (0.25**2) / 4, rel=0.5)


# LeviScan's per-node export as it stood before the array version, kept
# verbatim (with Grid3.node_coords inlined) as the oracle of
# TestLeviScanAgainstPerNodeOracle.


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


def node_coords(grid, node) -> tuple[float, float, float]:
    i, j, k = (int(n) for n in node)
    return (
        grid.origin[0] + grid.spacing * i,
        grid.origin[1] + grid.spacing * j,
        grid.origin[2] + grid.spacing * k,
    )


def oracle_min_sample(scan) -> LeviSample:
    vals = np.where(scan.finite_mask, scan.values, np.inf)
    node = tuple(int(i) for i in np.unravel_index(np.argmin(vals), vals.shape))
    value = float(scan.values[node])
    return LeviSample(
        node=node,
        location=node_coords(scan.phi.grid, node),
        levi_value=value,
        delta_tau_value=-value,
        classification=classify_value(value, scan.tol),
    )


def oracle_samples(scan):
    for node in zip(*np.nonzero(scan.finite_mask)):
        node = tuple(int(i) for i in node)
        value = float(scan.values[node])
        yield LeviSample(
            node=node,
            location=node_coords(scan.phi.grid, node),
            levi_value=value,
            delta_tau_value=-value,
            classification=classify_value(value, scan.tol),
        )


def oracle_to_csv(scan, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["xi1", "xi2", "xi3", "levi_value", "classification"])
        for s in oracle_samples(scan):
            writer.writerow(
                [repr(s.location[0]), repr(s.location[1]), repr(s.location[2]), repr(s.levi_value), s.classification]
            )


def oracle_counts(scan) -> dict:
    # LeviScan.counts as it stood before the per-plane pool pass
    finite = scan.values[scan.finite_mask]
    near = np.abs(finite) <= scan.tol
    return {
        "scanned": int(finite.size),
        "near_zero": int(near.sum()),
        "violating": int(((finite < 0) & ~near).sum()),
        "pseudoconvex_ok": int(((finite > 0) & ~near).sum()),
    }


class TestLeviScanAgainstPerNodeOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        origin=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        spacing=st.floats(1e-3, 1.0),
        extents=st.tuples(*[st.integers(5, 8)] * 3),
        tol=st.sampled_from([0.0, -0.0, 1e-9, 0.3, 1.0, 5.0, math.inf]),
        source=st.sampled_from(["levi", "noise", "blank"]),
        workers=st.sampled_from([1, 2, 3]),
    )
    def test_csv_bytes_counts_and_least_match(
        self, tmp_path_factory, seed, origin, spacing, extents, tol, source, workers
    ):
        # "levi" scans a random cubic's graph_levi_fields, NaN ring and all;
        # "noise" also plants exact zeros, -0.0, values at +-tol and
        # non-finite interior nodes; "blank" has no finite node at all
        with with_workers(workers):
            rng = np.random.default_rng(seed)
            grid = Grid3(origin, spacing, extents)
            if source == "levi":
                poly = Poly3.random(rng, degrees=(1, 2, 3), cmax=3.0)
                values = graph_levi_fields(ScalarField3.from_function(grid, poly))
            elif source == "noise":
                values = rng.standard_normal(extents) * rng.choice([1e-9, 1.0, 10.0])
                flat = values.reshape(-1)
                picks = rng.choice(flat.size, size=8, replace=False)
                planted = [0.0, -0.0, tol, -tol, np.nan, np.inf, -np.inf, 2.0 * tol + 1.0]
                flat[picks] = planted
            else:
                values = np.full(extents, np.nan)
            if source != "blank":
                # one node of each class, so every example writes all three
                values[1, 1, 1], values[1, 1, 2], values[1, 2, 1] = 0.0, tol + 1.0, -tol - 1.0
            phi = ScalarField3(grid, np.zeros(extents))
            scan = LeviScan(phi=phi, values=values, tol=tol)
            out = tmp_path_factory.mktemp("scan")
            scan.to_csv(out / "new.csv")
            oracle_to_csv(scan, out / "old.csv")
            assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
            assert scan.counts() == oracle_counts(scan)
            worst = oracle_min_sample(scan)
            assert repr(scan.least()) == repr((worst.levi_value, list(worst.location)))
            # at tol = inf every finite node is near_zero, and tol + 1 is not finite
            if source != "blank" and math.isfinite(tol):
                rows = csv.reader((out / "new.csv").read_text().splitlines()[1:])
                labels = {row[-1] for row in rows}
                assert labels == {"near_zero", "violating", "pseudoconvex_ok"}


class TestSliceGraph:
    @staticmethod
    def two_disc_field(y1, z2, z3):
        return np.abs(z2) ** 2 + np.abs(z3) ** 2

    def test_identity_slice(self):
        grid = centered_grid(0.1, 7)

        def phi(y1, z2, z3):
            return y1**2 + np.abs(z2) ** 2 + 3 * np.abs(z3) ** 2

        sliced = slice_graph(phi, 0.0, grid)
        x1, x2, x3 = grid.mesh()
        assert np.max(np.abs(sliced.values - (x1**2 + x2**2 + x3**2))) <= 1e-14

    @pytest.mark.parametrize("t", [0.1, 0.05j, 0.08 - 0.06j])
    def test_scaled_slice(self, t):
        grid = centered_grid(0.1, 7)
        sliced = slice_graph(self.two_disc_field, t, grid)
        x1, x2, x3 = grid.mesh()
        expected = (1.0 + abs(t) ** 2) * (x2**2 + x3**2)
        assert np.max(np.abs(sliced.values - expected)) <= 1e-14
        assert slice_ratio_min(sliced) == pytest.approx(1.0 + abs(t) ** 2, abs=1e-12)

    def test_slice_exits_domain(self):
        grid = centered_grid(0.1, 7)

        def phi(y1, z2, z3):
            return np.sqrt(0.05 - np.abs(z3) ** 2)

        with pytest.raises(DomainError):
            slice_graph(phi, 3.0, grid)

    def test_transversality_proxy(self):
        # phi(0, z2, 0) = |z2|^2 with bounded Hessian in z3
        def phi(y1, z2, z3):
            return np.abs(z2) ** 2 + np.abs(z3) ** 2 + np.real(z2 * np.conj(z3))

        grid = centered_grid(0.05, 9)
        hessian_bound = 2.0
        for t in (0.1, -0.05, 0.02j):
            sliced = slice_graph(phi, t, grid)
            ratio = slice_ratio_min(sliced)
            assert ratio >= 1.0 - hessian_bound * abs(t) ** 2 - 10 * grid.spacing


@pytest.fixture(scope="module")
def disc_fields():
    h = 1.0 / 512
    return {
        "harmonic": DiscField.from_function(h, lambda x, y: x - 0.3 * y),
        "r2": DiscField.from_function(h, lambda x, y: x * x + y * y),
        "r4": DiscField.from_function(h, lambda x, y: (x * x + y * y) ** 2),
    }


def green_report(u, r):
    return green_identity_report(u, r, _log_weights(u, r), u.laplacian_field())


class TestGreenIdentity:
    @pytest.mark.parametrize("name", ["harmonic", "r2", "r4"])
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    def test_normalized_residual(self, disc_fields, name, r):
        assert green_report(disc_fields[name], r).residual <= 1e-5

    def test_r2_closed_form_sides(self, disc_fields):
        rep = green_report(disc_fields["r2"], 1.0)
        assert isinstance(rep, GreenIdentityReport)
        assert rep.circle_mean == pytest.approx(1.0, abs=1e-5)
        assert rep.area_term == pytest.approx(1.0, abs=1e-5)
        # u(0) = 0, so the residual is the gap between the two sides alone
        assert rep.residual == abs(rep.circle_mean - rep.area_term)

    def test_r4_closed_form_sides(self, disc_fields):
        # mean of |z|^4 on |z| = r is r^4; the log-weighted area term matches
        rep = green_report(disc_fields["r4"], 0.5)
        assert rep.circle_mean == pytest.approx(0.5**4, abs=1e-5)
        assert rep.area_term == pytest.approx(0.5**4, abs=1e-5)

    def test_constant_flags_convention(self):
        u = DiscField.from_function(1.0 / 128, lambda x, y: 2.5 + 0.0 * x)
        rep = green_report(u, 0.25)
        assert rep.residual <= 1e-12
        # the 5-point Laplacian of a constant is exactly 0, so the area term
        # vanishes and the circle mean alone balances u(0)
        assert rep.area_term == 0.0
        assert rep.circle_mean == pytest.approx(2.5, abs=1e-12)

    def test_radius_resolution_error(self):
        u = DiscField.from_function(1.0 / 64, lambda x, y: x * x)
        with pytest.raises(StencilError):
            _log_weights(u, 3.0 / 64)


def log_weights_loop(g, r):
    """_log_weights as it was before the grouped broadcast, kept verbatim as
    its bitwise oracle, except that it takes full meshes, which the loop
    indexes per node."""
    h = g.spacing
    gx, gy = np.broadcast_arrays(*g.meshes())
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


def assert_window_is_the_loop(g, r):
    """_log_weights(g, r) is the centred block of half-width ceil(r/h)
    (at most g.half) of the per-cell loop, bit for bit, and the loop is
    exactly 0 outside it."""
    window = _log_weights(g, r)
    oracle = log_weights_loop(g, r)
    k = min(math.ceil(r / g.spacing), g.half)
    assert window.shape == (2 * k + 1, 2 * k + 1)
    block = (slice(g.half - k, g.half + k + 1),) * 2
    assert np.array_equal(window.view(np.int64), oracle[block].view(np.int64))
    oracle[block] = 0.0
    assert not oracle.any()


class TestLogWeights:
    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.integers(min_value=16, max_value=512),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bitwise_equal_to_the_per_cell_loop(self, cells, fraction):
        # radii up to 1.5, past the grid's edge at 1 + 2h, where the window
        # is the whole grid
        h = 1.0 / cells
        r = 4.0 * h + fraction * (1.5 - 4.0 * h)
        half = int(math.ceil(1.0 / h)) + 2
        assert_window_is_the_loop(DiscField(h, np.zeros((2 * half + 1, 2 * half + 1))), r)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    def test_bitwise_equal_at_the_shipped_spacing(self, r):
        # r/h is an integer here: the window's edge nodes lie on the rim,
        # where s < r fails, so they weigh 0
        assert_window_is_the_loop(DiscField.from_function(1.0 / 512, lambda x, y: x), r)


class TestUnitSquareLogMoment:
    def test_frozen_value_is_the_quadrature(self):
        # the value the origin cell's weight used to get from quad, recomputed
        # with its old integrand and tolerances
        def integrand(theta):
            r = 1.0 / (2.0 * math.cos(theta))
            return 0.5 * r * r * (math.log(1.0 / r) + 0.5)

        val, _ = quad(integrand, 0.0, math.pi / 4.0, epsabs=1e-13, epsrel=1e-13)
        frozen = levi_module._unit_square_log_moment()
        assert frozen.hex() == (8.0 * val).hex() == "0x1.0fa93159c77efp+0"

    def test_frozen_value_near_closed_form(self):
        # int over [-1/2, 1/2]^2 of log(1/|zeta|) = 3/2 + ln(2)/2 - pi/4
        closed = 1.5 + 0.5 * math.log(2.0) - 0.25 * math.pi
        frozen = levi_module._unit_square_log_moment()
        assert abs(frozen - closed) <= 2.0 * math.ulp(closed)


class TestFitPositiveScale:
    def test_recovers_scale(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(50)
        assert fit_positive_scale(2.7 * b, b) == pytest.approx(2.7, rel=1e-12)

    def test_negative_scale_raises(self):
        with pytest.raises(ConsistencyError):
            fit_positive_scale([1.0, 2.0], [-1.0, -2.0])

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError):
            fit_positive_scale([1.0], [0.0])
