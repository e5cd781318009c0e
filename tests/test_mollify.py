"""Mollifier kernels, shrinking-grid convolution, and the mollified-sign
certificate sweep."""

import dataclasses
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve

import levicheck.cli as cli_module
import levicheck.levi as levi_module
import levicheck.mollify as mollify_module
from helpers_poly import Poly3, node_derivatives
from levicheck.cli import run_scenario
from levicheck.fields import (
    Grid3,
    ParameterError,
    ScalarField3,
    StencilError,
    stable_sum,
)
from levicheck.levi import ConsistencyError, delta_tau_fields, tau_fields
from levicheck.mollify import (
    BumpKernel,
    HypothesisError,
    UnderResolvedKernelError,
    bump_profile,
    convolve3,
    kernel_profile_constants,
    make_kernel,
    mollified_sign_certificate,
    staircase_sweep_case,
)
from levicheck.staircase import build_cantor
from test_levi import shift_t_form
from test_potential import _WORKERS, with_workers

def cube_grid(h, n, origin=0.0):
    return Grid3((origin, origin, origin), h, (n, n, n))


def smooth_field(grid, fn):
    return ScalarField3.from_function(grid, fn)


# seven half-dyadic deltas from 16h down to 2h on the h = 1/32 grids below
SWEEP = tuple(0.5 * 2.0 ** (-0.5 * k) for k in range(7))


def kernel_mass(ker):
    return stable_sum(ker.weights)


def axis_second_moment(ker):
    """Discrete second moment of a BumpKernel along one axis, the same on
    all axes by symmetry."""
    r = ker.cell_radius
    d = ker.spacing * np.arange(-r, r + 1)
    return stable_sum(ker.weights * (d[:, None, None] ** 2))


def continuum_second_moment(ker):
    return ker.delta**2 * kernel_profile_constants()[1]


def base_window(mol):
    """The base samples of a MollifiedField over the index box of its field."""
    m = mol.margin
    sel = tuple(slice(m, n - m) for n in mol.base.grid.extents)
    return mol.base.values[sel]


def sup_distance_to_base(mol):
    return float(np.max(np.abs(mol.field.values - base_window(mol))))


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
        # the radial integrals kernel_profile_constants used to compute,
        # recomputed with its old integrands and tolerances
        def radial(f):
            val, err = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err <= 1e-11
            return val

        mass = radial(lambda r: 4.0 * math.pi * r * r * math.exp(-1.0 / (1.0 - r * r)))
        mom = radial(lambda r: (4.0 * math.pi / 3.0) * r**4 * math.exp(-1.0 / (1.0 - r * r)))
        c, m2 = kernel_profile_constants()
        assert c.hex() == (1.0 / mass).hex() == "0x1.2230e19e6a7c1p+1"
        assert m2.hex() == (1.0 / mass * mom).hex() == "0x1.c98161cff00dep-4"

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
        assert kernel_mass(ker) == pytest.approx(1.0, abs=1e-13)

    def test_discrete_moment_tracks_continuum(self):
        ker = make_kernel(0.1, 1.0 / 128.0)  # R = 12
        assert axis_second_moment(ker) == pytest.approx(continuum_second_moment(ker), rel=1e-3)

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
        assert sup_distance_to_base(mol) <= 1e-13

    def test_affine_fixed_point(self):
        v = smooth_field(
            cube_grid(1.0 / 32.0, 25), lambda a, b, c: 0.3 * a - 1.2 * b + 0.5 * c
        )
        mol = convolve3(v, 3.0 / 32.0)
        assert sup_distance_to_base(mol) <= 1e-12

    def test_quadratic_shift_is_discrete_axis_moment(self):
        # (xi1 + s)^2 averaged over the symmetric kernel adds exactly the
        # discrete second moment, independently of the node
        v = smooth_field(cube_grid(1.0 / 32.0, 25), lambda a, b, c: a * a)
        mol = convolve3(v, 4.0 / 32.0)
        shift = mol.field.values - base_window(mol)
        assert np.max(np.abs(shift - axis_second_moment(mol.kernel))) <= 1e-13

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
        for delta in shipped_case.delta_sweep(7):
            mol = convolve3(v, delta)
            ref = fftconvolve(v.values, mol.kernel.weights, mode="valid")[1:-1, 1:-1, 1:-1]
            assert mol.field.values.shape == ref.shape
            got = mol.field.values.view(np.int64)
            assert np.array_equal(got, np.ascontiguousarray(ref).view(np.int64)), delta

    def test_reduced_axis_is_the_marginal_convolution_broadcast(self, shipped_case):
        # along xi3 the shipped v repeats one plane: the reduced route is
        # the valid-mode 2-D transform of that plane against the kernel
        # summed over xi3, bit for bit, broadcast back as a read-only view
        v = shipped_case.v
        for delta in shipped_case.delta_sweep(7):
            mol = convolve3(v, delta, (2,))
            full = convolve3(v, delta)
            ref = fftconvolve(v.values[:, :, 0], mol.kernel.weights.sum(axis=2), mode="valid")
            ref = np.ascontiguousarray(ref[1:-1, 1:-1])
            vals = mol.field.values
            assert mol.field.grid == full.field.grid and mol.base is v
            assert mol.kernel.weights.shape == full.kernel.weights.shape
            assert not vals.flags.writeable and vals.strides[2] == 0
            assert np.array_equal(vals[:, :, 0].view(np.int64), ref.view(np.int64)), delta
            assert np.max(np.abs(vals - full.field.values)) <= 1e-13

    def test_two_reduced_axes_run_one_dimensional(self):
        grid = Grid3((0.0, -0.5, 0.25), 1.0 / 32.0, (23, 29, 19))
        v = smooth_field(grid, lambda a, b, c: np.sin(3.0 * b) + b**3 + 0.0 * (a + c))
        for cells in (2, 4):
            mol = convolve3(v, cells / 32.0, (0, 2))
            full = convolve3(v, cells / 32.0)
            ref = fftconvolve(v.values[0, :, 0], mol.kernel.weights.sum(axis=(0, 2)), "valid")
            assert mol.field.values.shape == full.field.values.shape
            assert np.array_equal(mol.field.values[2, :, 3], ref[1:-1])
            assert np.max(np.abs(mol.field.values - full.field.values)) <= 1e-14

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
        assert np.min(mol.field.values - base_window(mol)) >= -1e-12

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
        assert np.min(mol.field.values - base_window(mol)) >= -1e-11

    def test_sup_distance_bounded_by_lipschitz_radius(self):
        grid = cube_grid(1.0 / 32.0, 33)
        v = smooth_field(grid, lambda a, b, c: np.sin(2.0 * a) + 0.5 * np.cos(b + c))
        delta = 4.0 / 32.0
        mol = convolve3(v, delta)
        lip = 2.0 + 0.5 * math.sqrt(2.0)  # sup |grad| over the cube
        assert sup_distance_to_base(mol) <= lip * delta

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
            - float(np.sum(base_window(mol)[box])) * h**3
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
        raw_field = ScalarField3(inner_grid, raw[1:-1, 1:-1, 1:-1])

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
    def test_wide_base_runs_32h_to_4h(self, shipped_case):
        h = 1.0 / 128.0
        sweep = shipped_case.delta_sweep(7)
        assert len(sweep) == 7
        assert sweep[0] == 32.0 * h
        assert sweep[-1] == pytest.approx(4.0 * h)
        assert all(a > b for a, b in zip(sweep, sweep[1:]))
        # the window is 1/4 down to 1/32 whatever h, not 32h down to 4h
        assert staircase_sweep_case(spacing=1.0 / 100.0).delta_sweep(7) == sweep

    def test_rejects_degenerate_requests(self, shipped_case):
        with pytest.raises(ParameterError):
            shipped_case.delta_sweep(1)


def quadratic_case(h=1.0 / 32.0, n=41):
    """v = -|z2|^2 with a polynomial phi; -Delta_tau v = |tau2|^2 = 1/4."""
    grid = cube_grid(h, n)
    v = smooth_field(grid, lambda a, b, c: -(b * b + c * c))
    phi = smooth_field(grid, lambda a, b, c: -0.8 * b + 0.1 * b * b - 0.05 * c * c)
    return v, phi


# the six kink planes n . xi = const with n summing one or two axes
KINK_NORMALS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def kink_id(normal):
    return "+".join(f"xi{ax + 1}" for ax, c in enumerate(normal) if c)


class TestCertificateBasics:
    def test_quarter_floor_for_pure_z2_square(self):
        v, phi = quadratic_case()
        rep = mollified_sign_certificate(v, phi, deltas=SWEEP)
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
        rep = mollified_sign_certificate(v, phi, deltas=SWEEP)
        assert min(rep.m_values) >= -1e-2
        gaps = [abs(m - raw_min) for m in rep.m_values]
        assert gaps[-1] <= 5e-3
        assert gaps[-1] <= gaps[0]

    def test_report_holds_what_the_sweep_computes(self):
        # the arguments and the verdict are the caller's: cli's mollify-sweep
        # writes them into its certificate table
        v, phi = quadratic_case()
        rep = mollified_sign_certificate(v, phi, deltas=SWEEP)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "m_values",
            "fitted_slope",
            "hypothesis_min",
            "reduced_axes",
        ]
        # v = -(xi2^2 + xi3^2) and phi hold no xi1
        assert rep.reduced_axes == (0,)
        assert len(rep.m_values) == len(SWEEP) == 7
        again = mollified_sign_certificate(v, phi, deltas=SWEEP)
        assert repr(again) == repr(rep)

    def test_parameter_preconditions(self):
        v, phi = quadratic_case()
        small = smooth_field(cube_grid(1.0 / 16.0, 17), lambda a, b, c: a)
        with pytest.raises(ParameterError):
            mollified_sign_certificate(v, small, deltas=SWEEP)

    def test_sweep_rejects_under_resolved_deltas(self):
        v, phi = quadratic_case()
        with pytest.raises(UnderResolvedKernelError):
            mollified_sign_certificate(v, phi, deltas=(0.1, v.grid.spacing))

    @pytest.mark.parametrize(
        "deltas",
        [(), (0.25,), (0.25, 0.25), (0.125, math.inf), (math.nan, 0.25), (0.25, -math.inf)],
        ids=repr,
    )
    def test_sweep_it_cannot_fit_rejected_before_any_work(self, shipped_case, deltas):
        # once a polyfit of one distinct point, or an overflow in make_kernel
        # after the hypothesis pass; now refused before the pass runs
        case = shipped_case
        with mock.patch.object(
            mollify_module, "_neg_delta_tau_extremes", side_effect=AssertionError
        ), pytest.raises(ParameterError, match="two distinct finite deltas"):
            mollified_sign_certificate(case.v, case.phi, deltas=deltas)

    def test_hidden_convex_kink_raises(self):
        grid = cube_grid(1.0 / 32.0, 41)
        x2 = grid.mesh()[1]
        vals = np.broadcast_to(
            -(x2 - 0.6) ** 2 - grid.mesh()[2] ** 2 + 0.5 * np.abs(x2 - 0.625), grid.shape
        )
        v = ScalarField3(grid, vals)
        phi = smooth_field(grid, lambda a, b, c: -0.5 * b)
        with pytest.raises(HypothesisError):
            mollified_sign_certificate(v, phi, deltas=SWEEP)

    @pytest.mark.parametrize("normal", KINK_NORMALS, ids=kink_id)
    def test_hidden_convex_kink_raises_in_any_plane(self, normal):
        # v = -|z2|^2 (-Delta_tau v = 1/4) plus a convex kink on a plane
        # n . xi = const between nodes: whatever the plane, the nodes beside
        # it see a positive second difference of order 1/h that the check
        # must refuse, with nothing declared to excuse it
        v, phi = quadratic_case()
        grid = v.grid
        across = sum(c * x for c, x in zip(normal, grid.mesh()))
        kink = 0.5 * np.abs(across - 19.75 * grid.spacing * sum(normal))
        kinked = ScalarField3(grid, v.values + kink)
        with pytest.raises(HypothesisError):
            mollified_sign_certificate(kinked, phi, deltas=SWEEP)

    @pytest.mark.parametrize("q, raises", [(-0.9e-9, False), (-1.1e-9, True)])
    def test_hypothesis_tolerance_edge(self, q, raises):
        # v = -4q |z2|^2 makes -Delta_tau v = q at every node, so peak = |q|
        # and the check forgives q down to -1e-9 (1 + |q|), about -1e-9
        v, phi = quadratic_case()
        scaled = ScalarField3(v.grid, 4.0 * q * v.values)
        low, peak, _ = whole_grid_hypothesis(scaled, phi)
        assert low == pytest.approx(q, rel=1e-6) and peak == pytest.approx(-q, rel=1e-6)
        if raises:
            with pytest.raises(HypothesisError):
                mollified_sign_certificate(scaled, phi, deltas=SWEEP)
        else:
            rep = mollified_sign_certificate(scaled, phi, deltas=SWEEP)
            assert min(rep.m_values) >= -1e-2 and rep.hypothesis_min.hex() == low.hex()

# g's Holder seminorm for the declared exponent 0.9 on the shipped grid:
# measured 6.84 at h = 1/128 and again at 1/256
HOLDER_SEMINORM_BOUND = 7.0


@pytest.fixture(scope="module")
def shipped_case():
    return staircase_sweep_case()


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """One default mollify-sweep run (the shipped case's seven deltas at
    h = 1/128): its report and the certificate result the runner got."""
    results = []

    def certificate(*args, **kwargs):
        results.append(mollified_sign_certificate(*args, **kwargs))
        return results[-1]

    outdir = tmp_path_factory.mktemp("mollify-sweep")
    with mock.patch.object(cli_module, "mollified_sign_certificate", certificate):
        report, _ = run_scenario({"scenario": "mollify-sweep", "outdir": str(outdir)})
    [result] = results
    return report, result


@pytest.fixture(scope="module")
def shipped_report(shipped_run):
    return shipped_run[1]


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

    def test_coefficients_match_quadrature_of_the_staircase(self):
        # ghat is the mean of g = 1 + f(xi2 / L) over [xi2 - h, xi2 + h], with
        # f the staircase iterate, 0 left of 0
        h = 1.0 / 32.0
        case = staircase_sweep_case(spacing=h)
        f = build_cantor(mollify_module._ALPHAS)
        lam = float(mollify_module._STRETCH)
        x = case.v.grid.axis(1) / lam
        w = h / lam
        knots = np.array([x / f.denominator for x in f.xs])
        for xj, ghat in zip(x, case.ghat_values):
            inside = knots[(knots > xj - w) & (knots < xj + w)]
            mean = quad(f, xj - w, xj + w, points=inside, epsabs=1e-14, limit=200)[0] / (2 * w)
            assert abs(ghat - (1.0 + mean)) <= 1e-13
        # every box stays left of 1, where the case's F1 needs no branch
        assert x[-1] + w < 1.0

    def test_deficit_profile_bounds(self, shipped_case):
        case = shipped_case
        # 1 <= ghat <= sup g = 2, so 0 < deficit = 4 - ghat^2 <= 3
        assert np.all(case.deficit > 0.0)
        assert np.all(case.deficit <= 3.0 + 1e-12)
        assert np.all(case.ghat_values >= 1.0 - 1e-12)
        assert np.all(case.ghat_values <= 2.0 + 1e-12)

    def test_fields_are_read_only_broadcast_views(self, shipped_case):
        # v holds its (xi1, xi2) data once and phi its xi2 profile once: no
        # full 3-D array of either
        v, phi = shipped_case.v.values, shipped_case.phi.values
        assert not v.flags.writeable and not phi.flags.writeable
        assert v.strides[2] == 0 and 0 not in v.strides[:2]
        assert phi.strides[0] == phi.strides[2] == 0 and phi.strides[1] != 0

    def test_declared_gradient_holder_class_is_honest(self, shipped_case):
        case = shipped_case
        assert case.p == 6.0
        assert case.alpha == 0.9
        # g = 1 + f(xi2 / L) on the grid's xi2 nodes; its seminorm for the
        # declared exponent over all node pairs, the constant 1 cancelling
        f = build_cantor(mollify_module._ALPHAS)
        x2 = case.v.grid.axis(1)
        gx = f(x2 / float(mollify_module._STRETCH))
        seminorm = max(
            float(np.max(np.abs(gx[lag:] - gx[:-lag]))) / (x2[lag] - x2[0]) ** case.alpha
            for lag in range(1, len(gx))
        )
        assert seminorm <= HOLDER_SEMINORM_BOUND

    def test_sweep_matches_slab_restricted_1d_oracle(self, shipped_case, shipped_report):
        case, rep = shipped_case, shipped_report
        h = case.v.grid.spacing
        n1, n2, _ = case.v.grid.extents
        a1, b1 = case.road_top
        for d, m in zip(case.delta_sweep(7), rep.m_values):
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
        for m in rep.m_values:
            assert -1e-2 <= m <= -1e-4

    def test_fitted_slope_near_target_rate(self, shipped_run):
        # the target alpha - 3/p of the shipped case, as the scenario reports it
        report, rep = shipped_run
        [band] = [a for a in report["assertions"] if a["name"] == "decay_slope_within_band"]
        assert band["detail"]["rate_target"] == pytest.approx(0.4)
        assert band["detail"]["fitted_slope"] == rep.fitted_slope
        assert abs(rep.fitted_slope - 0.4) <= 0.2
        # regression pin on the frozen constants
        assert rep.fitted_slope == pytest.approx(0.4884, abs=2e-2)

    def test_declared_exponents_give_a_decay_rate(self, shipped_case):
        # alpha a Holder exponent below 1 and the rate alpha - 3/p positive
        assert 3.0 / shipped_case.p < shipped_case.alpha < 1.0

    def test_report_is_deterministic(self, shipped_case, shipped_report):
        case = shipped_case
        again = mollified_sign_certificate(case.v, case.phi, deltas=case.delta_sweep(7))
        assert repr(again) == repr(shipped_report)

    def test_case_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            staircase_sweep_case(spacing=1.0 / 4.0)


def whole_grid_m_values(v, phi, deltas, axes=()):
    """The certificate's per-delta minima as computed before the plane
    blocks, kept as the bitwise oracle for the blocked loop; the smoothed
    Hessians come node by node from the term-by-term stencil of
    helpers_poly, independent of the library's.
    axes go to convolve3 as the certificate passes them (none: the 3-D
    route); the minimum is taken over the whole of U^delta."""
    tau1, tau2 = tau_fields(phi.gradient_fields())
    m_values = []
    for d in deltas:
        mol = convolve3(v, d, axes)
        m = mol.margin
        sel = tuple(slice(m, n - m) for n in v.grid.extents)
        lap = delta_tau_fields(node_derivatives(mol.field)[1], tau1[sel], tau2[sel])
        m_values.append(float(np.nanmin(-lap)))
    return m_values


@pytest.fixture(scope="module")
def small_case():
    """The staircase case at h = 1/32, a sweep from 4h down to 2h, and the
    oracle's minima on the certificate's route, reduced along xi3."""
    h = 1.0 / 32.0
    case = staircase_sweep_case(spacing=h)
    deltas = (4.0 * h, 4.0 * h * 2.0**-0.5, 2.0 * h)
    return case, deltas, whole_grid_m_values(case.v, case.phi, deltas, axes=(2,))


class TestBlockedSweepMinimum:
    @pytest.mark.parametrize("workers", _WORKERS)
    @settings(max_examples=30, deadline=None)
    @given(
        # the smoothed grids have at most 27 x 13 nodes per xi1-plane
        block=st.one_of(
            st.just(1), st.integers(1, 3 * 27 * 13), st.just(levi_module._BLOCK)
        )
    )
    def test_m_values_match_whole_grid_bitwise(self, small_case, workers, block):
        case, deltas, want = small_case
        with mock.patch.object(levi_module, "_BLOCK", block), with_workers(workers):
            rep = mollified_sign_certificate(case.v, case.phi, deltas=deltas)
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in want]

    @pytest.mark.parametrize("workers", _WORKERS)
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        # the smoothed grids have 11 x 11 and 9 x 9 nodes per xi1-plane
        block=st.one_of(st.just(1), st.integers(1, 4 * 11 * 11), st.just(levi_module._BLOCK)),
    )
    def test_m_values_of_random_cubics_match_whole_grid_bitwise(self, workers, seed, block):
        # on the staircase case the minima sit where tau's mixed coefficient
        # vanishes; random cubics make them read the mixed Hessian entries too
        rng = np.random.default_rng(seed)
        grid = cube_grid(1.0 / 16.0, 17, origin=-0.5)
        v = smooth_field(grid, Poly3.random(rng))
        phi = smooth_field(grid, Poly3.random(rng))
        deltas = (2.0 / 16.0, 3.0 / 16.0)
        want = whole_grid_m_values(v, phi, deltas)
        with (
            mock.patch.object(levi_module, "_BLOCK", block),
            mock.patch.object(mollify_module, "_HYPOTHESIS_RTOL", math.inf),
            with_workers(workers),
        ):
            rep = mollified_sign_certificate(v, phi, deltas=deltas)
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in want]

    def test_broken_route_raises_after_the_last_block(self, small_case, monkeypatch):
        case, deltas, _ = small_case
        original = levi_module._delta_tau_forms

        def shifted(hess, tau1, tau2, *parts):
            complex_form, t_form = original(hess, tau1, tau2, *parts)
            return complex_form, t_form + 1e-3

        monkeypatch.setattr(levi_module, "_BLOCK", 1)
        monkeypatch.setattr(levi_module, "_delta_tau_forms", shifted)
        with pytest.raises(ConsistencyError) as err:
            mollified_sign_certificate(case.v, case.phi, deltas=deltas)
        assert err.value.where == "delta_tau_fields"

    def test_consistency_error_detail_does_not_depend_on_the_workers(
        self, small_case, monkeypatch
    ):
        # one plane per slab; at two workers xi1-plane 2 is the second
        # share's first slab, so its shifted T-form reaches the hypothesis
        # pass's verdict only through the merge of the shares' checks
        case, deltas, _ = small_case
        monkeypatch.setattr(levi_module, "_BLOCK", 1)
        shift_t_form(monkeypatch, 2, 1e-3)
        details = []
        for workers in (1, 2):
            with with_workers(workers), pytest.raises(ConsistencyError) as err:
                mollified_sign_certificate(case.v, case.phi, deltas=deltas)
            details.append((err.value.where, err.value.worst, err.value.scale))
        assert details[0] == details[1]
        assert details[0][0] == "delta_tau_fields" and details[0][1] > 1e-9 * details[0][2]


def whole_grid_hypothesis(v, phi):
    """The certificate's hypothesis check as computed before the slabs, kept
    as the bitwise oracle: (min, max|.|, argmin node) of -Delta_tau v over
    the whole grid's finite nodes, or None if none."""
    tau1, tau2 = tau_fields(phi.gradient_fields())
    raw = -delta_tau_fields(v.hessian_fields(), tau1, tau2)
    valid = np.isfinite(raw)
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
    return f"-Delta_tau v = {low:.6e} < -{tol:.1e} at node {node}"


def negated(field):
    return ScalarField3(field.grid, -field.values)


class TestSlabbedHypothesisCheck:
    @pytest.mark.parametrize("workers", _WORKERS)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        v_degrees=st.sampled_from([(2,), (2, 3), (3,)]),
        phi_degrees=st.sampled_from([(1,), (2, 3)]),
        # the grid has 9 x 11 nodes per xi1-plane
        block=st.one_of(st.just(1), st.integers(1, 4 * 9 * 11), st.just(levi_module._BLOCK)),
    )
    def test_extremes_match_whole_grid_bitwise(self, workers, seed, v_degrees, phi_degrees, block):
        # a quadratic v and a linear phi make -Delta_tau v constant up to
        # rounding, so the argmin rule (first node in C order) meets ties
        rng = np.random.default_rng(seed)
        grid = Grid3((-0.5, -0.5, -0.625), 1.0 / 8.0, (10, 9, 11))
        v = smooth_field(grid, Poly3.random(rng, v_degrees))
        phi = smooth_field(grid, Poly3.random(rng, phi_degrees))
        want = whole_grid_hypothesis(v, phi)
        tau1, tau2 = tau_fields(phi.gradient_fields())
        with mock.patch.object(levi_module, "_BLOCK", block), with_workers(workers):
            low, peak, node = levi_module._neg_delta_tau_extremes(v, tau1, tau2)
        assert (low.hex(), peak.hex()) == (want[0].hex(), want[1].hex())
        assert node == want[2] and repr(node) == repr(want[2])

    @pytest.mark.parametrize("workers", _WORKERS)
    @pytest.mark.parametrize("block", [1, 3 * 33 * 19 + 5, levi_module._BLOCK])
    @pytest.mark.parametrize("layout", ["views", "contiguous"])
    def test_certificate_reports_and_raises_as_before(self, small_case, layout, block, workers):
        # the case's stride-0 views and contiguous copies of the same values
        # take the same reduced route and give the same bits
        case, deltas, _ = small_case
        v, phi = case.v, case.phi
        if layout == "contiguous":
            v, phi = contiguous(v), contiguous(phi)
        with mock.patch.object(levi_module, "_BLOCK", block), with_workers(workers):
            rep = mollified_sign_certificate(v, phi, deltas=deltas)
            with pytest.raises(HypothesisError) as err:
                mollified_sign_certificate(negated(v), phi, deltas=deltas)
        assert rep.reduced_axes == (2,)
        assert rep.hypothesis_min.hex() == whole_grid_hypothesis(case.v, case.phi)[0].hex()
        want = whole_grid_hypothesis(negated(case.v), case.phi)
        assert str(err.value) == hypothesis_message(want)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_threads_keep_their_own_buffers(self, workers):
        # 27 one-plane slabs over up to five threads, more than the cores of
        # a small box; a short switch interval interleaves them at every few
        # bytecodes, so a work buffer two shares held in common would mix
        # slabs, in the pass's extremes or in any slab a visit copies out
        rng = np.random.default_rng(7)
        grid = Grid3((-0.5, -0.5, -0.625), 1.0 / 16.0, (29, 17, 21))
        v = smooth_field(grid, Poly3.random(rng, (2, 3)))
        phi = smooth_field(grid, Poly3.random(rng, (1, 2, 3)))
        tau1, tau2 = tau_fields(phi.gradient_fields())
        want_raw = -delta_tau_fields(v.hessian_fields(), tau1, tau2)
        want = whole_grid_hypothesis(v, phi)
        raw = np.full(grid.shape, np.nan)

        def copy_out(planes, g, hess):
            inner = np.s_[planes, 1:-1, 1:-1]
            raw[inner] = -levi_module._delta_tau_forms(hess, tau1[inner], tau2[inner])[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(levi_module, "_BLOCK", 1), with_workers(workers):
                low, peak, node = levi_module._neg_delta_tau_extremes(v, tau1, tau2)
                levi_module._slab_pass(v, False, copy_out)
        finally:
            sys.setswitchinterval(interval)
        assert (low.hex(), peak.hex(), node) == (want[0].hex(), want[1].hex(), want[2])
        assert np.array_equal(raw, want_raw, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_no_finite_interior_node_rejected(self):
        # a c11 v of +-1.7e308 in a checkerboard: its stencil overflows at
        # every node, so the check has no minimum to compare
        grid = cube_grid(1.0 / 16.0, 17)
        sign = (-1.0) ** np.add.outer(np.add.outer(np.arange(17), np.arange(17)), np.arange(17))
        v = ScalarField3(grid, 1.7e308 * sign)
        _, phi = quadratic_case(h=1.0 / 16.0, n=17)
        with pytest.raises(ParameterError, match="no interior node has a finite -Delta_tau v"):
            mollified_sign_certificate(v, phi, deltas=(2.0 / 16.0, 3.0 / 16.0))

    def test_peak_memory_stays_below_one_field(self):
        # the whole-grid check held nine Hessian arrays and complex
        # temporaries, about 20 fields; the slabs hold a few MiB
        grid = cube_grid(1.0 / 96.0, 97, origin=-0.5)
        v = smooth_field(grid, lambda a, b, c: -(b * b + c * c) + a * b * c)
        phi = smooth_field(grid, lambda a, b, c: -0.8 * b + 0.1 * b * b - 0.05 * c * c)
        tau1, tau2 = tau_fields(phi.gradient_fields())
        tracemalloc.start()
        try:
            levi_module._neg_delta_tau_extremes(v, tau1, tau2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= v.values.nbytes


def stencil_m_values(v, phi, deltas):
    """whole_grid_m_values on the 3-D route with the whole-grid stencils
    (hessian_fields) for its node-by-node loop, which would take about a
    minute on the shipped grid; the two agree bit for bit (test_fields)."""
    tau1, tau2 = tau_fields(phi.gradient_fields())
    m_values = []
    for d in deltas:
        mol = convolve3(v, d)
        m = mol.margin
        sel = tuple(slice(m, n - m) for n in v.grid.extents)
        lap = delta_tau_fields(mol.field.hessian_fields(), tau1[sel], tau2[sel])
        m_values.append(float(np.nanmin(-lap)))
    return m_values


def one_ulp_up(field, node):
    vals = field.values.copy()
    vals[node] = np.nextafter(vals[node], np.inf)
    return ScalarField3(field.grid, vals)


def contiguous(field):
    return ScalarField3(field.grid, np.ascontiguousarray(field.values))


def plane_view(field, axis):
    """field as a read-only view of its first plane along axis (stride 0)."""
    first = np.take(field.values, [0], axis=axis)
    return ScalarField3(field.grid, np.broadcast_to(first, field.grid.shape))


def whole_grid_invariant_axes(v, phi):
    """_invariant_axes as computed before the stride shortcut, kept as the
    oracle: every plane compared with the first in one whole-grid pass."""
    axes = [
        ax
        for ax in range(3)
        if all(
            np.all(f.values.view(np.int64) == np.take(f.values, [0], axis=ax).view(np.int64))
            for f in (v, phi)
        )
    ]
    return tuple(axes[-2:])


class TestInvariantAxes:
    def test_shipped_views_agree_with_contiguous_copies(self, shipped_case):
        v, phi = shipped_case.v, shipped_case.phi
        assert mollify_module._invariant_axes(v, phi) == (2,)
        assert mollify_module._invariant_axes(contiguous(v), contiguous(phi)) == (2,)

    @pytest.mark.parametrize("axis, want", [(0, (0,)), (1, (0, 1)), (2, (0, 2))])
    def test_quadratic_case_views_agree_with_contiguous_copies(self, axis, want):
        # the case holds no xi1; a view of its first plane along axis makes
        # both fields repeat along that axis too
        v, phi = quadratic_case()
        assert mollify_module._invariant_axes(v, phi) == (0,)
        views = plane_view(v, axis), plane_view(phi, axis)
        assert mollify_module._invariant_axes(*views) == want
        assert mollify_module._invariant_axes(*map(contiguous, views)) == want

    def test_negative_zero_plane_is_not_invariant(self):
        grid = Grid3((0.0, 0.0, 0.0), 1.0 / 16.0, (5, 6, 7))
        zero = ScalarField3(grid, np.zeros(grid.shape))
        vals = np.zeros(grid.shape)
        vals[:, :, 3] = -0.0
        signed = ScalarField3(grid, vals)
        assert mollify_module._invariant_axes(zero, zero) == (1, 2)
        assert mollify_module._invariant_axes(signed, zero) == (0, 1)
        assert mollify_module._invariant_axes(zero, plane_view(signed, 0)) == (0, 1)

    # each axis of each field is free, repeated as a stride-0 view, repeated
    # in memory, or repeated but for one plane that differs in one node by a
    # sign of zero or one ulp; values come from {0, -0, 0.5, 1}
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        modes=st.lists(
            st.sampled_from(["free", "view", "copy", "differ"]), min_size=6, max_size=6
        ),
    )
    def test_stride_shortcut_matches_bit_compare(self, seed, modes):
        rng = np.random.default_rng(seed)
        grid = Grid3((0.0, 0.0, 0.0), 1.0 / 16.0, (5, 6, 7))
        fields = []
        for axis_modes in (modes[:3], modes[3:]):
            shape = [1 if m != "free" else n for m, n in zip(axis_modes, grid.shape)]
            vals = rng.choice([0.0, -0.0, 0.5, 1.0], size=shape)
            for ax, m in enumerate(axis_modes):
                if m in ("copy", "differ"):
                    vals = np.repeat(vals, grid.shape[ax], axis=ax)
            for ax, m in enumerate(axis_modes):
                if m == "differ":
                    node = tuple(
                        int(rng.integers(1, n)) if a == ax else int(rng.integers(0, s))
                        for a, (n, s) in enumerate(zip(grid.shape, vals.shape))
                    )
                    x = vals[node]
                    vals[node] = -x if x == 0.0 else np.nextafter(x, np.inf)
            fields.append(ScalarField3(grid, np.broadcast_to(vals, grid.shape)))
        got = mollify_module._invariant_axes(*fields)
        assert got == mollify_module._invariant_axes(*map(contiguous, fields))
        assert got == whole_grid_invariant_axes(*fields)


class TestReducedSweep:
    def test_shipped_case_within_1e_12_of_3d_route(self, shipped_case, shipped_report):
        case, rep = shipped_case, shipped_report
        assert rep.reduced_axes == (2,)
        want = stencil_m_values(case.v, case.phi, case.delta_sweep(7))
        # measured: at most 7.14e-13
        assert max(abs(m - w) for m, w in zip(rep.m_values, want)) <= 1e-12

    def test_shipped_hypothesis_check_equals_3d_check_bitwise(self, shipped_case, shipped_report):
        case = shipped_case
        tau1, tau2 = tau_fields(case.phi.gradient_fields())
        low, _, node = levi_module._neg_delta_tau_extremes(case.v, tau1, tau2)
        assert shipped_report.hypothesis_min.hex() == low.hex()
        assert node == (1, 113, 1)

    @pytest.mark.parametrize("node", [(16, 16, 9), (0, 0, 0), (32, 32, 18)])
    @pytest.mark.parametrize("changed", ["v", "phi"])
    def test_one_ulp_change_switches_reduction_off(self, small_case, changed, node):
        case, deltas, _ = small_case
        v, phi = case.v, case.phi
        if changed == "v":
            v = one_ulp_up(v, node)
        else:
            phi = one_ulp_up(phi, node)
        rep = mollified_sign_certificate(v, phi, deltas=deltas)
        assert rep.reduced_axes == ()
        want = whole_grid_m_values(v, phi, deltas)
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in want]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cubic_without_xi1_reduces_along_xi1(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid3((-0.5, -0.5, -0.375), 1.0 / 16.0, (15, 17, 13))

        def no_xi1(degrees):
            poly = Poly3.random(rng, degrees)
            return Poly3({e: c for e, c in poly.terms.items() if e[0] == 0})

        v = smooth_field(grid, no_xi1((2, 3)))
        phi = smooth_field(grid, no_xi1((1, 2, 3)))
        deltas = (2.0 / 16.0, 3.0 / 16.0)
        with mock.patch.object(mollify_module, "_HYPOTHESIS_RTOL", math.inf):
            rep = mollified_sign_certificate(v, phi, deltas=deltas)
        assert rep.reduced_axes == (0,)
        on_route = whole_grid_m_values(v, phi, deltas, axes=(0,))
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in on_route]
        three_d = whole_grid_m_values(v, phi, deltas)
        # FFT rounding of the 3-D route, times 1/h^2 in the stencil; measured
        # at most 2.7e-15 over seeds 0-39
        assert max(abs(m - w) for m, w in zip(rep.m_values, three_d)) <= 1e-13
        assert rep.hypothesis_min.hex() == whole_grid_hypothesis(v, phi)[0].hex()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_fields_of_one_coordinate_reduce_along_the_other_two(self, axis):
        grid = Grid3((-0.5, -0.375, -0.25), 1.0 / 16.0, (15, 17, 13))

        def along(fn):
            return lambda *xs: fn(xs[axis])

        v = smooth_field(grid, along(lambda x: -((x - 0.1) ** 2) + 0.3 * x**3))
        phi = smooth_field(grid, along(lambda x: -0.5 * x + 0.2 * x**2))
        deltas = (2.0 / 16.0, 3.0 / 16.0)
        others = tuple(ax for ax in range(3) if ax != axis)
        with mock.patch.object(mollify_module, "_HYPOTHESIS_RTOL", math.inf):
            rep = mollified_sign_certificate(v, phi, deltas=deltas)
        assert rep.reduced_axes == others
        on_route = whole_grid_m_values(v, phi, deltas, axes=others)
        assert [m.hex() for m in rep.m_values] == [m.hex() for m in on_route]
        three_d = whole_grid_m_values(v, phi, deltas)
        assert max(abs(m - w) for m, w in zip(rep.m_values, three_d)) <= 1e-13
        assert rep.hypothesis_min.hex() == whole_grid_hypothesis(v, phi)[0].hex()

    def test_constant_field_keeps_one_axis(self):
        grid = Grid3((0.0, 0.0, 0.0), 1.0 / 16.0, (13, 15, 17))
        v = smooth_field(grid, lambda a, b, c: np.full((1, 1, 1), 0.75))
        phi = smooth_field(grid, lambda a, b, c: np.full((1, 1, 1), -0.25))
        rep = mollified_sign_certificate(v, phi, deltas=(2.0 / 16.0, 3.0 / 16.0))
        assert rep.reduced_axes == (1, 2)
        assert max(abs(m) for m in rep.m_values) <= 1e-10


def test_calibration_script_runs_the_frozen_case(monkeypatch, capsys):
    # scripts/ is no package: load the script from its path, run its main()
    # at the default spacing and read what it prints
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_mollify_case.py"
    spec = importlib.util.spec_from_file_location("calibrate_mollify_case", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path)])
    script.main()
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert len([line for line in lines if line.startswith("delta ")]) == 7
    assert "fitted slope 0.4884   pass(m >= -eps) True" in lines
