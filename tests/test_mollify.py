"""Mollifier kernels, shrinking-grid convolution, and the mollified-sign
certificate sweep."""

import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve

import levicheck.levi as levi_module
import levicheck.mollify as mollify_module
from helpers_poly import Poly3, node_derivatives
from levicheck.fields import Grid3, ParameterError, Regularity, ScalarField3, StencilError
from levicheck.levi import ConsistencyError, delta_tau_fields, tau_fields
from levicheck.mollify import (
    BumpKernel,
    HypothesisError,
    UnderResolvedKernelError,
    bump_profile,
    convolve3,
    default_delta_sweep,
    kernel_profile_constants,
    kink_plane_mask,
    make_kernel,
    mollified_sign_certificate,
    staircase_deficit_fields,
    staircase_sweep_case,
)
from levicheck.staircase import build_cantor, staircase_f

# frozen from an independent radial quadrature of exp(-1/(1-r^2)) over the
# unit ball: normalization and single-axis second moment of the unit kernel
PROFILE_NORM = 2.2671167396083267
PROFILE_M2 = 0.11169565399086731


def cube_grid(h, n, origin=0.0):
    return Grid3((origin, origin, origin), h, (n, n, n))


def smooth_field(grid, fn):
    return ScalarField3.from_function(grid, fn, Regularity("smooth"))


def direct_convolve(values, weights):
    """Reference valid-mode sum: taps accumulated in a fixed C-order loop."""
    side = weights.shape[0]
    out = np.zeros(tuple(n - side + 1 for n in values.shape))
    n0, n1, n2 = out.shape
    for a in range(side):
        for b in range(side):
            for c in range(side):
                wk = weights[a, b, c]
                if wk != 0.0:
                    out += wk * values[a : a + n0, b : b + n1, c : c + n2]
    return out


class TestKernelProfile:
    def test_profile_constants_match_frozen_quadrature(self):
        c, m2 = kernel_profile_constants()
        assert c == pytest.approx(PROFILE_NORM, abs=1e-10)
        assert m2 == pytest.approx(PROFILE_M2, abs=1e-10)

    def test_axis_moment_below_isotropy_bound(self):
        # three equal axis moments must sum to the radial moment < 1
        _, m2 = kernel_profile_constants()
        assert 0.0 < 3.0 * m2 < 1.0

    def test_bump_profile_shape(self):
        r = np.linspace(0.0, 1.5, 31)
        vals = bump_profile(r)
        assert vals[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert np.all(vals[r >= 1.0] == 0.0)
        inside = vals[r < 1.0]
        assert np.all(np.diff(inside) < 0.0)
        assert bump_profile(-0.5) == bump_profile(0.5)

    def test_discrete_mass_is_one(self):
        ker = make_kernel(0.1, 1.0 / 128.0)
        assert ker.mass() == pytest.approx(1.0, abs=1e-13)

    def test_discrete_moment_tracks_continuum(self):
        ker = make_kernel(0.1, 1.0 / 128.0)  # R = 12
        assert ker.axis_second_moment() == pytest.approx(
            ker.continuum_second_moment(), rel=1e-3
        )

    def test_under_resolved_and_bad_parameters(self):
        with pytest.raises(UnderResolvedKernelError):
            make_kernel(0.01, 1.0 / 64.0)
        with pytest.raises(ParameterError):
            make_kernel(0.0, 1.0 / 64.0)
        with pytest.raises(ParameterError):
            make_kernel(0.1, -1.0)

    def test_margin_exceeds_cell_radius(self):
        ker = make_kernel(5.0 / 64.0, 1.0 / 64.0)
        assert ker.cell_radius == 5
        assert ker.margin == 6

    @given(cells=st.integers(min_value=2, max_value=9))
    @settings(max_examples=9, deadline=None)
    def test_weights_symmetric_under_flips(self, cells):
        ker = make_kernel(cells / 64.0, 1.0 / 64.0)
        w = ker.weights
        for axis in range(3):
            assert np.array_equal(w, np.flip(w, axis=axis))
        assert np.array_equal(w, np.transpose(w, (1, 2, 0)))


class TestConvolve3:
    def test_constant_fixed_point(self):
        v = smooth_field(cube_grid(1.0 / 32.0, 25), lambda a, b, c: 0.0 * a + 0.7)
        mol = convolve3(v, 3.0 / 32.0)
        assert mol.sup_distance_to_base() <= 1e-13

    def test_affine_fixed_point(self):
        v = smooth_field(
            cube_grid(1.0 / 32.0, 25), lambda a, b, c: 0.3 * a - 1.2 * b + 0.5 * c
        )
        mol = convolve3(v, 3.0 / 32.0)
        assert mol.sup_distance_to_base() <= 1e-12

    def test_quadratic_shift_is_discrete_axis_moment(self):
        # (xi1 + s)^2 averaged over the symmetric kernel adds exactly the
        # discrete second moment, independently of the node
        v = smooth_field(cube_grid(1.0 / 32.0, 25), lambda a, b, c: a * a)
        mol = convolve3(v, 4.0 / 32.0)
        shift = mol.field.values - mol.base_window()
        assert np.max(np.abs(shift - mol.kernel.axis_second_moment())) <= 1e-13

    def test_direct_and_fft_agree(self):
        v = smooth_field(
            cube_grid(1.0 / 24.0, 29),
            lambda a, b, c: np.sin(2.0 * a) + np.cos(b + c) + a * b * c,
        )
        # 9^3 taps (at most 11^3, the old direct-loop range) and 13^3 taps
        for cells in (4, 6):
            mol = convolve3(v, cells / 24.0)
            assert mol.kernel.weights.size == (2 * cells + 1) ** 3
            ref = direct_convolve(v.values, mol.kernel.weights)[1:-1, 1:-1, 1:-1]
            assert ref.shape == mol.field.grid.shape
            assert np.max(np.abs(ref - mol.field.values)) <= 1e-12

    def test_bitwise_equal_to_fftconvolve_on_shipped_sweep(self, shipped_case):
        # the padding and core slice of the docstring: scipy.signal's
        # valid-mode transform less one node per face, bit for bit
        v = shipped_case.v
        for delta in shipped_case.delta_sweep():
            mol = convolve3(v, delta)
            ref = fftconvolve(v.values, mol.kernel.weights, mode="valid")[1:-1, 1:-1, 1:-1]
            assert mol.field.values.shape == ref.shape
            got = mol.field.values.view(np.int64)
            assert np.array_equal(got, np.ascontiguousarray(ref).view(np.int64)), delta

    def test_output_nodes_beyond_delta(self):
        h = 1.0 / 32.0
        v = smooth_field(cube_grid(h, 33), lambda a, b, c: a + b * c)
        delta = 5.0 * h
        mol = convolve3(v, delta)
        sub = mol.field.grid
        assert sub.extents == tuple(n - 2 * mol.margin for n in v.grid.extents)
        for k in range(3):
            lo = sub.origin[k] - v.grid.origin[k]
            hi = (
                v.grid.origin[k]
                + h * (v.grid.extents[k] - 1)
                - (sub.origin[k] + h * (sub.extents[k] - 1))
            )
            assert lo > delta and hi > delta

    def test_stencil_error_when_kernel_swallows_grid(self):
        v = smooth_field(cube_grid(1.0 / 16.0, 17), lambda a, b, c: a)
        with pytest.raises(StencilError):
            convolve3(v, 0.5)

    def test_jensen_on_axis_convex_field(self):
        v = smooth_field(
            cube_grid(1.0 / 24.0, 29, origin=-0.5),
            lambda a, b, c: a * a + b**4 + np.cosh(c),
        )
        mol = convolve3(v, 3.0 / 24.0)
        assert np.min(mol.field.values - mol.base_window()) >= -1e-12

    @given(
        a=st.floats(min_value=0.1, max_value=2.0),
        b=st.floats(min_value=0.1, max_value=2.0),
        cells=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_jensen_property(self, a, b, cells):
        v = smooth_field(
            cube_grid(1.0 / 16.0, 21, origin=-0.6),
            lambda x, y, z: a * x * x + b * y * y + (a + b) * z**4,
        )
        mol = convolve3(v, cells / 16.0)
        assert np.min(mol.field.values - mol.base_window()) >= -1e-11

    def test_sup_distance_bounded_by_lipschitz_radius(self):
        grid = cube_grid(1.0 / 32.0, 33)
        v = smooth_field(grid, lambda a, b, c: np.sin(2.0 * a) + 0.5 * np.cos(b + c))
        delta = 4.0 / 32.0
        mol = convolve3(v, delta)
        lip = 2.0 + 0.5 * math.sqrt(2.0)  # sup |grad| over the cube
        assert mol.sup_distance_to_base() <= lip * delta

    def test_mass_preserved_over_sub_box(self):
        grid = cube_grid(1.0 / 40.0, 41)
        v = smooth_field(grid, lambda a, b, c: np.sin(2.0 * a) + 0.5 * np.cos(b + c))
        h = grid.spacing
        delta = 4.0 * h
        mol = convolve3(v, delta)
        box = (slice(5, 16), slice(5, 16), slice(5, 16))
        lip = 2.0 + 0.5 * math.sqrt(2.0)
        measure = 11.0**3 * h**3
        gap = abs(
            float(np.sum(mol.field.values[box])) * h**3
            - float(np.sum(mol.base_window()[box])) * h**3
        )
        assert gap <= lip * delta * measure

    @given(
        c200=st.floats(min_value=-1.5, max_value=1.5),
        c020=st.floats(min_value=-1.5, max_value=1.5),
        c111=st.floats(min_value=-1.5, max_value=1.5),
        c210=st.floats(min_value=-1.0, max_value=1.0),
        c003=st.floats(min_value=-1.0, max_value=1.0),
        t1r=st.floats(min_value=-1.0, max_value=1.0),
        t1i=st.floats(min_value=-1.0, max_value=1.0),
        cells=st.integers(min_value=3, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_frozen_tau_commutation(self, c200, c020, c111, c210, c003, t1r, t1i, cells):
        # for constant coefficients the operator passes through the kernel sum
        h = 1.0 / 24.0
        n = 25
        poly = Poly3(
            {(2, 0, 0): c200, (0, 2, 0): c020, (1, 1, 1): c111, (2, 1, 0): c210, (0, 0, 3): c003}
        )
        grid = cube_grid(h, n)
        v = smooth_field(grid, poly)
        tau1 = np.full(grid.shape, t1r + 1j * t1i)
        tau2 = np.full(grid.shape, 0.5 + 0.0j)
        raw = delta_tau_fields(v.hessian_fields(), tau1, tau2)
        inner_grid = Grid3(tuple(o + h for o in grid.origin), h, (n - 2, n - 2, n - 2))
        raw_field = ScalarField3(inner_grid, raw[1:-1, 1:-1, 1:-1], Regularity("smooth"))

        delta = cells * h
        lhs_full = convolve3(v, delta)
        m = lhs_full.margin
        lhs = delta_tau_fields(
            lhs_full.field.hessian_fields(),
            np.full(lhs_full.field.grid.shape, t1r + 1j * t1i),
            np.full(lhs_full.field.grid.shape, 0.5 + 0.0j),
        )[1:-1, 1:-1, 1:-1]
        rhs = convolve3(raw_field, delta).field.values
        scale = 1.0 + float(np.nanmax(np.abs(raw)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


class TestDeltaSweep:
    def test_default_runs_16h_to_2h(self):
        h = 1.0 / 128.0
        sweep = default_delta_sweep(h)
        assert len(sweep) == 7
        assert sweep[0] == pytest.approx(16.0 * h)
        assert sweep[-1] == pytest.approx(2.0 * h)
        assert all(a > b for a, b in zip(sweep, sweep[1:]))

    def test_wide_base_runs_32h_to_4h(self):
        h = 1.0 / 128.0
        sweep = default_delta_sweep(h, base_cells=32)
        assert sweep[0] == pytest.approx(32.0 * h)
        assert sweep[-1] == pytest.approx(4.0 * h)

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ParameterError):
            default_delta_sweep(1.0 / 64.0, count=1)
        with pytest.raises(ParameterError):
            default_delta_sweep(1.0 / 64.0, base_cells=1)


class TestKinkMask:
    def test_diagonal_plane_mask(self):
        grid = cube_grid(1.0 / 8.0, 9)
        mask = kink_plane_mask(grid, [("xi1+xi2", 0.5)], width_cells=0.5)
        x1, x2, _ = grid.mesh()
        assert np.array_equal(mask, np.abs(x1 + x2 - 0.5) <= 0.5 / 8.0)

    def test_unknown_plane_spec(self):
        grid = cube_grid(1.0 / 8.0, 9)
        with pytest.raises(ParameterError):
            kink_plane_mask(grid, [("xi1*xi2", 0.0)])


def quadratic_case(h=1.0 / 32.0, n=41):
    """v = -|z2|^2 with a polynomial phi; -Delta_tau v = |tau2|^2 = 1/4."""
    grid = cube_grid(h, n)
    v = smooth_field(grid, lambda a, b, c: -(b * b + c * c))
    phi = smooth_field(grid, lambda a, b, c: -0.8 * b + 0.1 * b * b - 0.05 * c * c)
    return v, phi


class TestCertificateBasics:
    def test_quarter_floor_for_pure_z2_square(self):
        v, phi = quadratic_case()
        rep = mollified_sign_certificate(v, phi, alpha=0.9, p=6.0, epsilon=1e-2)
        assert rep.passed
        for m in rep.m_values:
            assert m == pytest.approx(0.25, abs=1e-10)
        assert rep.hypothesis_min == pytest.approx(0.25, abs=1e-10)

    def test_smooth_case_converges_to_raw_minimum(self):
        grid = cube_grid(1.0 / 32.0, 41)
        v = smooth_field(grid, lambda a, b, c: -(b * b + c * c) - 0.1 * np.sin(a + b))
        phi = smooth_field(grid, lambda a, b, c: -0.5 * b)
        tau1, tau2 = tau_fields(phi.gradient_fields())
        raw = -delta_tau_fields(v.hessian_fields(), tau1, tau2)
        raw_min = float(np.nanmin(raw))
        assert raw_min > 0.0
        rep = mollified_sign_certificate(v, phi, alpha=0.9, p=6.0, epsilon=1e-2)
        assert rep.passed
        gaps = [abs(m - raw_min) for m in rep.m_values]
        assert gaps[-1] <= 5e-3
        assert gaps[-1] <= gaps[0]

    def test_report_json_schema(self):
        v, phi = quadratic_case()
        rep = mollified_sign_certificate(v, phi, alpha=0.9, p=6.0, epsilon=1e-2)
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "epsilon",
            "alpha",
            "p",
            "deltas",
            "m_values",
            "fitted_slope",
            "pass",
        }
        assert payload["pass"] is True
        assert len(payload["deltas"]) == len(payload["m_values"]) == 7
        assert rep.to_json() == mollified_sign_certificate(
            v, phi, alpha=0.9, p=6.0, epsilon=1e-2
        ).to_json()

    def test_parameter_preconditions(self):
        v, phi = quadratic_case()
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, phi, alpha=0.9, p=2.0, epsilon=1e-2)
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, phi, alpha=0.4, p=6.0, epsilon=1e-2)
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, phi, alpha=0.9, p=6.0, epsilon=-1.0)
        small = smooth_field(cube_grid(1.0 / 16.0, 17), lambda a, b, c: a)
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, small, alpha=0.9, p=6.0, epsilon=1e-2)

    def test_phi_tag_gate(self):
        v, phi = quadratic_case()
        lip = ScalarField3(phi.grid, phi.values, Regularity("lipschitz"))
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, lip, alpha=0.9, p=6.0, epsilon=1e-2)
        low = ScalarField3(
            phi.grid, phi.values, Regularity("c1alpha", alpha=0.4, constant=1.0)
        )
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, low, alpha=0.9, p=6.0, epsilon=1e-2)

    def test_sweep_rejects_under_resolved_deltas(self):
        v, phi = quadratic_case()
        with pytest.raises(UnderResolvedKernelError):
            mollified_sign_certificate(
                v, phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=(0.1, v.grid.spacing)
            )

    def test_hidden_convex_kink_raises(self):
        grid = cube_grid(1.0 / 32.0, 41)
        x2 = grid.mesh()[1]
        vals = -(x2 - 0.6) ** 2 - grid.mesh()[2] ** 2 + 0.5 * np.abs(x2 - 0.625)
        v = ScalarField3(grid, vals, Regularity("c11", constant=4.0))
        phi = smooth_field(grid, lambda a, b, c: -0.5 * b)
        with pytest.raises(HypothesisError):
            mollified_sign_certificate(v, phi, alpha=0.9, p=6.0, epsilon=1e-2)

    def test_declared_kink_defect_grows_through_sweep(self):
        # declaring the kink lets construction pass, but its distributional
        # negative mass comes back at size ~1/delta once mollified
        grid = cube_grid(1.0 / 32.0, 41)
        x2 = grid.mesh()[1]
        vals = -(x2 - 0.6) ** 2 - grid.mesh()[2] ** 2 + 0.5 * np.abs(x2 - 0.625)
        v = ScalarField3(grid, vals, Regularity("c11", constant=4.0))
        phi = smooth_field(grid, lambda a, b, c: -0.5 * b)
        rep = mollified_sign_certificate(
            v, phi, alpha=0.9, p=6.0, epsilon=1e-2, kink_planes=[("xi2", 0.625)]
        )
        assert not rep.passed
        # wide kernels dilute the spike below the +1/4 smooth floor; the
        # defect takes over as delta shrinks
        assert all(m < -1e-3 for m in rep.m_values[-3:])
        assert min(rep.m_values) == rep.m_values[-1] < -0.3
        assert rep.m_values[-1] < rep.m_values[-2] < rep.m_values[-3]


@pytest.fixture(scope="module")
def shipped_case():
    return staircase_sweep_case()


@pytest.fixture(scope="module")
def shipped_report(shipped_case):
    case = shipped_case
    return mollified_sign_certificate(
        case.v, case.phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=case.delta_sweep()
    )


class TestStaircaseCase:
    def test_node_identity_against_plateau_model(self, shipped_case):
        case = shipped_case
        tau1, tau2 = tau_fields(case.phi.gradient_fields())
        cert = -delta_tau_fields(case.v.hessian_fields(), tau1, tau2)
        n1, n2, n3 = case.v.grid.extents
        h = case.v.grid.spacing
        mid = case.v.values[:, :, n3 // 2] / case.scale
        road_dd = np.full((n1, n2), np.nan)
        road_dd[1:-1, :] = (mid[2:, :] - 2.0 * mid[1:-1, :] + mid[:-2, :]) / h**2
        model = (case.scale / 16.0) * (1.0 + case.ghat_values[None, :] ** 2) * (
            1.0 - road_dd
        )
        gap = np.abs(cert[:, :, n3 // 2] - model)
        assert np.nanmax(gap) <= 5e-13

    def test_certificate_nonnegative_and_tight(self, shipped_case):
        case = shipped_case
        tau1, tau2 = tau_fields(case.phi.gradient_fields())
        cert = -delta_tau_fields(case.v.hessian_fields(), tau1, tau2)
        finite = np.isfinite(cert)
        assert float(cert[finite].min()) >= -1e-12
        # tight on the plateau slab: u = xi1 + xi2 inside road_top
        x1, x2, _ = case.v.grid.mesh()
        slab = (x1 + x2 >= case.road_top[0] + 2 * case.v.grid.spacing) & (
            x1 + x2 <= case.road_top[1] - 2 * case.v.grid.spacing
        )
        sel = slab & finite
        assert sel.any()
        assert float(np.max(np.abs(cert[sel]))) <= 1e-12

    def test_tau_components_are_the_box_average(self, shipped_case):
        case = shipped_case
        tau1, tau2 = tau_fields(case.phi.gradient_fields())
        inner = np.s_[1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(tau2[inner] - 0.5)) == 0.0
        assert np.max(np.abs(tau1[inner].imag)) == 0.0
        ghat_grid = np.broadcast_to(case.ghat_values[None, :, None], case.v.grid.shape)
        assert np.max(np.abs(tau1[inner].real - ghat_grid[inner] / 4.0)) <= 1e-13

    @pytest.mark.parametrize("stretch", [Fraction(5, 4), Fraction(3, 4)])
    def test_coefficients_match_quadrature_of_the_staircase(self, stretch):
        # g = 1 + f(xi2 / L) and ghat its mean over [xi2 - h, xi2 + h], with f
        # the staircase iterate, 0 left of 0 and 1 right of 1 (reached at L < 1)
        h = 1.0 / 32.0
        case = staircase_deficit_fields(spacing=h, stretch=stretch)
        f = staircase_f(build_cantor(case.alphas))
        lam = float(stretch)
        x = case.v.grid.axis(1) / lam
        assert np.max(np.abs(case.g_values - (1.0 + f(x)))) <= 1e-15
        w = h / lam
        knots = np.asarray(f.xs, dtype=float)
        for xj, ghat in zip(x, case.ghat_values):
            inside = knots[(knots > xj - w) & (knots < xj + w)]
            mean = quad(f, xj - w, xj + w, points=inside, epsabs=1e-14, limit=200)[0] / (2 * w)
            assert abs(ghat - (1.0 + mean)) <= 1e-13
        if stretch < 1:
            assert x[-1] - w > 1.0

    def test_deficit_profile_bounds(self, shipped_case):
        case = shipped_case
        assert case.g_sup == 2.0
        assert np.all(case.deficit > 0.0)
        assert np.all(case.deficit <= case.g_sup**2 - 1.0 + 1e-12)
        assert np.all(case.ghat_values >= 1.0 - 1e-12)
        assert np.all(case.ghat_values <= case.g_sup + 1e-12)

    def test_declared_gradient_holder_class_is_honest(self, shipped_case):
        case = shipped_case
        reg = case.phi.regularity
        assert reg.tag == "c1alpha"
        assert reg.alpha == 0.9
        h = case.v.grid.spacing
        g = case.g_values
        for lag in (1, 2, 5, 17, 40, 77, 128):
            if lag >= len(g):
                continue
            gaps = np.abs(g[lag:] - g[:-lag])
            assert float(gaps.max()) <= reg.constant * (lag * h) ** reg.alpha * (1.0 + 1e-12)

    def test_sweep_matches_slab_restricted_1d_oracle(self, shipped_case, shipped_report):
        case, rep = shipped_case, shipped_report
        h = case.v.grid.spacing
        n1, n2, _ = case.v.grid.extents
        a1, b1 = case.road_top
        for d, m in zip(rep.deltas, rep.m_values):
            ker = make_kernel(d, h)
            w1 = ker.weights.sum(axis=(0, 2))
            margin = ker.margin
            resp = np.convolve(case.deficit, w1[::-1], mode="same") - case.deficit
            ok = np.zeros(n2, dtype=bool)
            for j in range(margin, n2 - margin):
                lo = max(margin, math.ceil((a1 + (margin + 1) * h - j * h) / h))
                hi = min(n1 - 1 - margin, math.floor((b1 - (margin + 1) * h - j * h) / h))
                ok[j] = lo <= hi
            pred = -(case.scale / 16.0) * float(resp[ok].max())
            assert m == pytest.approx(pred, abs=1e-10)

    def test_sweep_minima_negative_but_above_epsilon(self, shipped_report):
        rep = shipped_report
        assert rep.passed
        for m in rep.m_values:
            assert -1e-2 <= m <= -1e-4

    def test_fitted_slope_near_target_rate(self, shipped_report):
        assert shipped_report.rate_target == pytest.approx(0.4)
        assert abs(shipped_report.fitted_slope - 0.4) <= 0.2
        # regression pin on the frozen constants
        assert shipped_report.fitted_slope == pytest.approx(0.4884, abs=2e-2)

    def test_report_is_deterministic(self, shipped_case, shipped_report):
        case = shipped_case
        again = mollified_sign_certificate(
            case.v, case.phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=case.delta_sweep()
        )
        assert again.to_json() == shipped_report.to_json()

    def test_case_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            staircase_deficit_fields(spacing=1.0 / 4.0)


def whole_grid_m_values(v, phi, deltas):
    """The certificate's per-delta minima as computed before the plane
    blocks, kept as the bitwise oracle for the blocked loop; the smoothed
    Hessians come node by node from fd_hessian, independent of the stencils."""
    tau1, tau2 = tau_fields(phi.gradient_fields())
    m_values = []
    for d in deltas:
        mol = convolve3(v, d)
        m = mol.margin
        sel = tuple(slice(m, n - m) for n in v.grid.extents)
        lap = delta_tau_fields(node_derivatives(mol.field)[1], tau1[sel], tau2[sel])
        m_values.append(float(np.nanmin(-lap)))
    return m_values


@pytest.fixture(scope="module")
def small_case():
    """The staircase case at h = 1/32, a sweep from 4h down to 2h, and the
    oracle's minima."""
    h = 1.0 / 32.0
    case = staircase_sweep_case(spacing=h)
    deltas = default_delta_sweep(h, count=3, base_cells=4)
    return case, deltas, whole_grid_m_values(case.v, case.phi, deltas)


class TestBlockedSweepMinimum:
    @settings(max_examples=30, deadline=None)
    @given(
        # the smoothed grids have at most 27 x 13 nodes per xi1-plane
        block=st.one_of(
            st.just(1), st.integers(1, 3 * 27 * 13), st.just(levi_module._BLOCK)
        )
    )
    def test_m_values_match_whole_grid_bitwise(self, small_case, block):
        case, deltas, want = small_case
        with mock.patch.object(levi_module, "_BLOCK", block):
            rep = mollified_sign_certificate(
                case.v, case.phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=deltas
            )
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in want]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        # the smoothed grids have 11 x 11 and 9 x 9 nodes per xi1-plane
        block=st.one_of(st.just(1), st.integers(1, 4 * 11 * 11), st.just(levi_module._BLOCK)),
    )
    def test_m_values_of_random_cubics_match_whole_grid_bitwise(self, seed, block):
        # on the staircase case the minima sit where tau's mixed coefficient
        # vanishes; random cubics make them read the mixed Hessian entries too
        rng = np.random.default_rng(seed)
        grid = cube_grid(1.0 / 16.0, 17, origin=-0.5)
        v = smooth_field(grid, Poly3.random(rng))
        phi = smooth_field(grid, Poly3.random(rng))
        deltas = (2.0 / 16.0, 3.0 / 16.0)
        want = whole_grid_m_values(v, phi, deltas)
        with mock.patch.object(levi_module, "_BLOCK", block):
            rep = mollified_sign_certificate(
                v, phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=deltas, hypothesis_tol=math.inf
            )
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in want]

    def test_broken_route_raises_after_the_last_block(self, small_case, monkeypatch):
        case, deltas, _ = small_case
        original = levi_module._delta_tau_forms

        def shifted(hess, tau1, tau2):
            complex_form, t_form = original(hess, tau1, tau2)
            return complex_form, t_form + 1e-3

        monkeypatch.setattr(levi_module, "_BLOCK", 1)
        monkeypatch.setattr(levi_module, "_delta_tau_forms", shifted)
        with pytest.raises(ConsistencyError) as err:
            mollified_sign_certificate(
                case.v, case.phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=deltas
            )
        assert err.value.where == "delta_tau_fields"


def whole_grid_hypothesis(v, phi, kinks):
    """The certificate's hypothesis check as computed before the slabs, kept
    as the bitwise oracle: (min, max|.|, argmin node) of -Delta_tau v over
    the whole grid's finite nodes off the kinks mask, or None if none."""
    tau1, tau2 = tau_fields(phi.gradient_fields())
    raw = -delta_tau_fields(v.hessian_fields(), tau1, tau2)
    valid = np.isfinite(raw) & ~kinks
    if not valid.any():
        return None
    flat = np.where(valid, raw, np.inf)
    node = np.unravel_index(int(np.argmin(flat)), flat.shape)
    return float(np.min(raw[valid])), float(np.max(np.abs(raw[valid]))), node


def hypothesis_message(oracle):
    """The HypothesisError message of the whole-grid check at its default
    tolerance 1e-9 * (1 + max|.|)."""
    low, peak, node = oracle
    tol = 1e-9 * (1.0 + peak)
    return f"-Delta_tau v = {low:.6e} < -{tol:.1e} at node {node}, away from declared kinks"


def negated(field):
    return ScalarField3(field.grid, -field.values, field.regularity)


KINK_SPECS = sorted(mollify_module._KINK_NORMALS)


class TestSlabbedHypothesisCheck:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        v_degrees=st.sampled_from([(2,), (2, 3), (3,)]),
        phi_degrees=st.sampled_from([(1,), (2, 3)]),
        # the grid has 9 x 11 nodes per xi1-plane
        block=st.one_of(st.just(1), st.integers(1, 4 * 9 * 11), st.just(levi_module._BLOCK)),
        planes=st.lists(
            st.tuples(st.sampled_from(KINK_SPECS), st.floats(-0.6, 0.6)), max_size=3
        ),
    )
    def test_extremes_match_whole_grid_bitwise(
        self, seed, v_degrees, phi_degrees, block, planes
    ):
        # a quadratic v and a linear phi make -Delta_tau v constant up to
        # rounding, so the argmin rule (first node in C order) meets ties
        rng = np.random.default_rng(seed)
        grid = Grid3((-0.5, -0.5, -0.625), 1.0 / 8.0, (10, 9, 11))
        v = smooth_field(grid, Poly3.random(rng, v_degrees))
        phi = smooth_field(grid, Poly3.random(rng, phi_degrees))
        kinks = kink_plane_mask(grid, planes)
        want = whole_grid_hypothesis(v, phi, kinks)
        tau1, tau2 = tau_fields(phi.gradient_fields())
        with mock.patch.object(levi_module, "_BLOCK", block):
            low, peak, node = mollify_module._hypothesis_extremes(v, tau1, tau2, kinks)
        if want is None:
            assert node is None
            return
        assert (low.hex(), peak.hex()) == (want[0].hex(), want[1].hex())
        assert node == want[2] and repr(node) == repr(want[2])

    @pytest.mark.parametrize("block", [1, 3 * 33 * 19 + 5, levi_module._BLOCK])
    @pytest.mark.parametrize("planes", [(), (("xi2", 0.5), ("xi1+xi2", 1.0))])
    def test_certificate_reports_and_raises_as_before(self, small_case, block, planes):
        case, deltas, _ = small_case
        kinks = kink_plane_mask(case.v.grid, planes)
        with mock.patch.object(levi_module, "_BLOCK", block):
            rep = mollified_sign_certificate(
                case.v, case.phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=deltas,
                kink_planes=planes,
            )
            with pytest.raises(HypothesisError) as err:
                mollified_sign_certificate(
                    negated(case.v), case.phi, alpha=0.9, p=6.0, epsilon=1e-2, deltas=deltas,
                    kink_planes=planes,
                )
        assert rep.hypothesis_min.hex() == whole_grid_hypothesis(case.v, case.phi, kinks)[0].hex()
        want = whole_grid_hypothesis(negated(case.v), case.phi, kinks)
        assert str(err.value) == hypothesis_message(want)

    def test_kinks_covering_every_node_rejected(self):
        v, phi = quadratic_case(n=9)
        planes = [("xi1", 0.125 * k) for k in range(9)]
        with pytest.raises(ParameterError, match="exclude every interior node"):
            mollified_sign_certificate(v, phi, alpha=0.9, p=6.0, epsilon=1e-2, kink_planes=planes)

    def test_peak_memory_stays_below_one_field(self):
        # the whole-grid check held nine Hessian arrays and complex
        # temporaries, about 20 fields; the slabs hold a few MiB
        grid = cube_grid(1.0 / 96.0, 97, origin=-0.5)
        v = smooth_field(grid, lambda a, b, c: -(b * b + c * c) + a * b * c)
        phi = smooth_field(grid, lambda a, b, c: -0.8 * b + 0.1 * b * b - 0.05 * c * c)
        tau1, tau2 = tau_fields(phi.gradient_fields())
        kinks = kink_plane_mask(grid, ())
        tracemalloc.start()
        try:
            mollify_module._hypothesis_extremes(v, tau1, tau2, kinks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= v.values.nbytes
