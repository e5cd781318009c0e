import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import levicheck.levi as levi_module
from helpers_poly import Poly3, node_derivatives
from levicheck.fields import (
    DiscField,
    DomainError,
    Grid3,
    ScalarField3,
    StencilError,
    wirtinger_parts,
)
from levicheck.levi import (
    _abs2,
    _dual_check,
    ConsistencyError,
    Defining2,
    DegeneratePointError,
    GreenIdentityReport,
    TangentPair,
    delta_tau,
    delta_tau_fields,
    fit_positive_scale,
    graph_levi,
    graph_levi_fields,
    green_identity_report,
    levi_condition_2d,
    levi_scan,
    slice_graph,
    slice_ratio_min,
    tau_fields,
    tau_of_phi,
)


def centered_grid(h, n):
    half = (n - 1) // 2
    return Grid3((-half * h, -half * h, -half * h), h, (n, n, n))


def whole_grid_levi_fields(phi):
    """graph_levi_fields as it was before the plane blocks, kept verbatim as
    the bitwise oracle for the blocked version, except that its derivative
    arrays come node by node from fd_gradient and fd_hessian (bitwise equal
    to the whole-grid stencils, and independent of them)."""
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
    _dual_check(direct, via_operator, "graph_levi_fields")
    return direct


def block_sizes(extents):
    """_BLOCK values that cut the interior xi1-planes into slabs of one plane,
    of two, of a count that does not divide them, and the shipped value."""
    n0, n1, n2 = extents
    plane = n1 * n2
    ragged = next((k for k in range(3, n0 - 2) if (n0 - 2) % k), 2)
    return {"one": 1, "two": 2 * plane, "ragged": ragged * plane, "shipped": levi_module._BLOCK}


def shift_t_form(target, eps):
    """_delta_tau_forms with eps added to the T-form of call number target."""
    original = levi_module._delta_tau_forms
    calls = itertools.count()

    def forms(hess, tau1, tau2):
        complex_form, t_form = original(hess, tau1, tau2)
        if next(calls) == target:
            t_form = t_form + eps
        return complex_form, t_form

    return forms


class TestTangentPair:
    def test_t_matrix_entries(self):
        t = TangentPair(1 + 2j, 3 - 1j).t_matrix()
        # cross = conj(tau1)*tau2 = (1-2j)(3-1j) = 1 - 7j
        assert t[0, 0] == 5.0
        assert t[1, 1] == 2.5 and t[2, 2] == 2.5
        assert t[0, 1] == -7.0
        assert t[0, 2] == -1.0
        assert t[1, 2] == 0.0
        assert np.array_equal(t, t.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TangentPair(complex("nan"), 1.0)
        with pytest.raises(ValueError):
            TangentPair(0.0, complex(np.inf, 0))


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

    def test_hyperplane_vanishes(self):
        rho = Defining2.hyperplane()
        for point in [(0.0, 0.0), (1 + 1j, 2 - 3j), (-5.0, 0.1j)]:
            assert levi_condition_2d(rho, point) == 0.0

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
        pair = tau_of_phi(phi, (3, 3, 3))
        assert pair.tau1 == 0.0 and pair.tau2 == 0.5

    def test_linear_in_y1(self):
        phi = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: a)
        pair = tau_of_phi(phi, (3, 3, 3))
        assert pair.tau1 == 0.0
        assert pair.tau2 == 0.5 + 0.5j

    def test_linear_in_re_z2(self):
        phi = ScalarField3.from_function(centered_grid(0.125, 7), lambda a, b, c: b)
        pair = tau_of_phi(phi, (3, 3, 3))
        assert pair.tau1 == -0.25
        assert pair.tau2 == 0.5

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
        assert delta_tau(v, TangentPair(1.0, 0.0), (3, 3, 3)) == 2.0

    def test_pure_z2_term(self):
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: b * b + c * c)
        assert delta_tau(v, TangentPair(0.0, 1.0), (3, 3, 3)) == 1.0

    def test_mixed_term_re_z2(self):
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: a * b)
        assert delta_tau(v, TangentPair(1.0, 1.0), (3, 3, 3)) == 0.0

    def test_mixed_term_im_z2(self):
        # v = y1 * Im z2 with tau = (1, 1): the mixed Wirtinger derivative is
        # i/2, so the operator value is 2 Re(i * (i/2)) = -1
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: a * c)
        assert delta_tau(v, TangentPair(1.0, 1.0), (3, 3, 3)) == -1.0

    def test_callable_tau(self):
        v = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: a * a)
        got = delta_tau(v, lambda node: TangentPair(2.0, 0.0), (3, 3, 3))
        assert got == 8.0

    def test_field_form_matches_node_form(self):
        v = ScalarField3.from_function(
            centered_grid(0.05, 7), lambda a, b, c: np.sin(a) * b + c * c * a
        )
        tau1 = np.full(v.grid.shape, 0.3 - 0.2j)
        tau2 = np.full(v.grid.shape, 0.5 + 0.1j)
        arr = delta_tau_fields(v.hessian_fields(), tau1, tau2)
        node = (3, 2, 4)
        assert arr[node] == pytest.approx(
            delta_tau(v, TangentPair(0.3 - 0.2j, 0.5 + 0.1j), node), abs=1e-13
        )

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
        pair = TangentPair(complex(*t1), complex(*t2))
        value = delta_tau(v, pair, (2, 2, 2))
        # independent evaluation from the exact Hessian and the T table
        hess = poly.hess(np.zeros(3))
        t = pair.t_matrix()
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
        assert graph_levi(phi, (3, 3, 3)) == -0.25

    def test_zero_field(self):
        phi = ScalarField3.from_function(centered_grid(0.0625, 7), lambda a, b, c: 0.0 * a)
        assert graph_levi(phi, (3, 3, 3)) == 0.0

    def test_minus_z2_squared_positive_quarter(self):
        phi = ScalarField3.from_function(
            centered_grid(0.0625, 7), lambda a, b, c: -(b * b) - c * c
        )
        assert graph_levi(phi, (3, 3, 3)) == 0.25

    def test_equals_minus_delta_tau(self):
        phi = ScalarField3.from_function(
            centered_grid(0.05, 9), lambda a, b, c: np.sin(a + b) * np.cos(c) * 0.3
        )
        for node in [(2, 3, 4), (4, 4, 4), (6, 2, 5)]:
            lhs = graph_levi(phi, node)
            rhs = -delta_tau(phi, tau_of_phi(phi, node), node)
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
        assert graph_levi(phi, center) == pytest.approx(0.125, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fd_route_matches_symbolic_route(self, seed):
        rng = np.random.default_rng(seed)
        poly = Poly3.random(rng, degrees=(2, 3))
        h = 1e-4
        phi = ScalarField3.from_function(centered_grid(h, 7), poly)
        fd_value = graph_levi(phi, (3, 3, 3))
        rho = Defining2.from_graph_partials(poly.value, poly.grad, poly.hess)
        symbolic = levi_condition_2d(rho, (0.0, 0.0))
        assert abs(fd_value - symbolic) <= 1e-8


class TestPlaneBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        cap=st.booleans(),
        extents=st.tuples(st.integers(5, 11), st.integers(5, 11), st.integers(5, 11)),
        h=st.sampled_from([0.05, 0.1, 0.125]),
        block=st.sampled_from(["one", "two", "ragged", "shipped"]),
    )
    def test_blocked_levi_fields_match_whole_grid_bitwise(self, seed, cap, extents, h, block):
        if cap:
            fn = lambda a, b, c: np.sqrt(4.0 - a * a - b * b - c * c)  # noqa: E731
        else:
            fn = Poly3.random(np.random.default_rng(seed), degrees=(1, 2, 3))
        phi = ScalarField3.from_function(Grid3((-0.3, -0.2, -0.4), h, extents), fn)
        want = whole_grid_levi_fields(phi)
        with mock.patch.object(levi_module, "_BLOCK", block_sizes(extents)[block]):
            got = graph_levi_fields(phi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def graded_field():
    """A field whose Levi values grow by about e^8 from the first interior
    xi1-plane to the last, so the planes' scales differ widely."""
    grid = Grid3((-1.0, -0.5, -0.5), 0.25, (9, 5, 5))
    return ScalarField3.from_function(grid, lambda a, b, c: np.exp(4.0 * a) * (b * b + c * c))


class TestDualCheckAcrossBlocks:
    TOL = levi_module._DUAL_TOL

    def scales(self, phi):
        """The global scale 1 + max|complex form| and each interior plane's own."""
        complex_form = delta_tau_fields(phi.hessian_fields(), *tau_fields(phi.gradient_fields()))
        inner = np.abs(complex_form[1:-1, 1:-1, 1:-1])
        return 1.0 + float(inner.max()), 1.0 + inner.max(axis=(1, 2))

    def test_whole_array_check_raises_above_its_scale_only(self, monkeypatch):
        phi = graded_field()
        scale, _ = self.scales(phi)
        hess, (tau1, tau2) = phi.hessian_fields(), tau_fields(phi.gradient_fields())
        monkeypatch.setattr(levi_module, "_delta_tau_forms", shift_t_form(0, 0.5 * self.TOL * scale))
        delta_tau_fields(hess, tau1, tau2)
        monkeypatch.setattr(levi_module, "_delta_tau_forms", shift_t_form(0, 2.0 * self.TOL * scale))
        with pytest.raises(ConsistencyError) as err:
            delta_tau_fields(hess, tau1, tau2)
        assert err.value.where == "delta_tau_fields"
        assert err.value.scale == scale

    def test_block_over_its_own_scale_but_under_the_global_one_passes(self, monkeypatch):
        phi = graded_field()
        scale, plane_scales = self.scales(phi)
        quiet = int(np.argmin(plane_scales))
        eps = self.TOL * math.sqrt(plane_scales[quiet] * scale)
        assert self.TOL * plane_scales[quiet] < eps < self.TOL * scale
        want = whole_grid_levi_fields(phi)
        monkeypatch.setattr(levi_module, "_BLOCK", 1)
        monkeypatch.setattr(levi_module, "_delta_tau_forms", shift_t_form(quiet, eps))
        got = graph_levi_fields(phi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("block", ["one", "two", "ragged", "shipped"])
    def test_block_over_the_global_scale_raises_for_any_blocking(self, monkeypatch, block):
        phi = graded_field()
        scale, _ = self.scales(phi)
        eps = 2.0 * self.TOL * scale
        monkeypatch.setattr(levi_module, "_BLOCK", block_sizes(phi.grid.extents)[block])
        blocks = len(list(levi_module._plane_blocks(phi, gradient=False)))
        for target in range(blocks):
            monkeypatch.setattr(levi_module, "_delta_tau_forms", shift_t_form(target, eps))
            with pytest.raises(ConsistencyError) as err:
                graph_levi_fields(phi)
            assert err.value.where == "delta_tau_fields"
            assert err.value.scale == scale
            assert err.value.worst > self.TOL * scale


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


class TestLeviScan:
    def test_scan_of_z2_squared(self):
        grid = centered_grid(0.1, 7)
        phi = ScalarField3.from_function(grid, lambda a, b, c: b * b + c * c)
        scan = levi_scan(phi, tol=1e-6)
        counts = scan.counts()
        assert counts["scanned"] == 5 * 5 * 5
        assert counts["violating"] == counts["scanned"]
        assert counts["pseudoconvex_ok"] == 0 and counts["near_zero"] == 0
        worst = scan.min_sample()
        assert worst.levi_value == pytest.approx(-0.25, abs=1e-12)
        assert worst.delta_tau_value == -worst.levi_value
        assert worst.classification == "violating"

    def test_default_tolerance_uses_regularity_constant(self):
        grid = centered_grid(0.1, 7)
        phi = ScalarField3.from_function(
            grid, lambda a, b, c: 0.0 * a, regularity=None
        )
        scan = levi_scan(phi)
        assert scan.tol == pytest.approx(10.0 * 0.1 * 1.0)
        assert scan.counts()["near_zero"] == scan.counts()["scanned"]

    def test_csv_and_summary(self, tmp_path):
        grid = centered_grid(0.25, 5)
        phi = ScalarField3.from_function(grid, lambda a, b, c: b * b + c * c)
        scan = levi_scan(phi, tol=1e-9)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "xi1,xi2,xi3,levi_value,classification"
        assert len(lines) == 1 + 3 * 3 * 3
        summary = scan.summary()
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
        "harmonic": DiscField.from_function(1.0, h, lambda x, y: x - 0.3 * y),
        "r2": DiscField.from_function(1.0, h, lambda x, y: x * x + y * y),
        "r4": DiscField.from_function(1.0, h, lambda x, y: (x * x + y * y) ** 2),
    }


class TestGreenIdentity:
    @pytest.mark.parametrize("name", ["harmonic", "r2", "r4"])
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    def test_normalized_residual(self, disc_fields, name, r):
        assert green_identity_report(disc_fields[name], r).residual <= 1e-5

    def test_r2_closed_form_sides(self, disc_fields):
        rep = green_identity_report(disc_fields["r2"], 1.0)
        assert isinstance(rep, GreenIdentityReport)
        assert rep.circle_mean == pytest.approx(1.0, abs=1e-5)
        assert rep.area_term == pytest.approx(1.0, abs=1e-5)
        assert rep.center_value == 0.0

    def test_r4_closed_form_sides(self, disc_fields):
        # mean of |z|^4 on |z| = r is r^4; the log-weighted area term matches
        rep = green_identity_report(disc_fields["r4"], 0.5)
        assert rep.circle_mean == pytest.approx(0.5**4, abs=1e-5)
        assert rep.area_term == pytest.approx(0.5**4, abs=1e-5)

    def test_constant_flags_convention(self):
        u = DiscField.from_function(0.5, 1.0 / 128, lambda x, y: 2.5 + 0.0 * x)
        rep = green_identity_report(u, 0.25)
        assert rep.residual <= 1e-12
        # raw sides are both sides of the identity times 2*pi; the area
        # integral of a constant vanishes, so both are 2*pi*u(0)
        assert rep.lhs_raw == pytest.approx(2.0 * math.pi * 2.5, abs=1e-9)
        assert rep.rhs_raw == pytest.approx(2.0 * math.pi * 2.5, abs=1e-9)

    def test_radius_resolution_error(self):
        u = DiscField.from_function(0.5, 1.0 / 64, lambda x, y: x * x)
        with pytest.raises(StencilError):
            green_identity_report(u, 3.0 / 64)


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
