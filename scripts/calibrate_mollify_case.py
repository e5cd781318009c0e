"""Calibration harness for the staircase certificate case.

This script builds the frozen case at one spacing, checks the node-level
certificate identity on -Delta_tau v (taken slab by slab through
levi._slab_pass, the pass and thread pool the certificate runs on, each
slab returning its dual-form gap to levi._verify), predicts the sweep
minima through the collapsed one-dimensional kernel acting on the deficit
profile, then runs the certificate's sweep and reports its hypothesis
minimum, m(delta), the fitted slope and the route it took.  The staircase
fields are constant along xi3, so the sweep convolves in 2-D (reduced axes
[2]); a field that is not invariant along any axis would take the 3-D
route.  The constants
frozen in levicheck.mollify (_SPANS, _ALPHAS, _STRETCH, _SCALE, _PLATEAU,
_HOLDER, _RATE_P) were chosen from this output over a grid of candidate
schedules, stretches and scales.  The sweep is fitted against the case's own
exponents: alpha is the gradient Holder exponent phi declares (_HOLDER) and
p is _RATE_P.

Run from the repository root:

    PYTHONPATH=src python scripts/calibrate_mollify_case.py [--spacing H] [--epsilon EPS]
"""

import argparse
import time

import numpy as np

from levicheck.levi import _delta_tau_forms, _dual_gap, _slab_pass, _verify, tau_fields
from levicheck.mollify import make_kernel, mollified_sign_certificate, staircase_sweep_case


def identity_residual(case):
    """Max deviation of -Delta_tau v from (c/16)(1+ghat^2)(1-P~) on interior
    nodes; each slab writes its -Delta_tau v into cert, no whole-grid Hessian,
    and returns its dual-form gap, which _verify checks over all slabs."""
    tau1, tau2 = tau_fields(case.phi.gradient_fields())
    cert = np.full(case.v.grid.shape, np.nan)

    def visit(planes, _, hess):
        inner = np.s_[planes, 1:-1, 1:-1]
        complex_form, t_form = _delta_tau_forms(hess, tau1[inner], tau2[inner])
        cert[inner] = -complex_form
        return _dual_gap(complex_form, t_form)

    _verify("delta_tau_fields", _slab_pass(case.v, False, visit))
    n1, n2, n3 = case.v.grid.extents
    h = case.v.grid.spacing
    road_dd = np.empty((n1, n2))
    v12 = case.v.values[:, :, n3 // 2] / case.scale
    road_dd[1:-1, :] = (v12[2:, :] - 2.0 * v12[1:-1, :] + v12[:-2, :]) / h**2
    road_dd[0, :] = road_dd[-1, :] = np.nan
    model = (case.scale / 16.0) * (1.0 + case.ghat_values[None, :] ** 2) * (1.0 - road_dd)
    diff = cert[:, :, n3 // 2] - model
    return float(np.nanmax(np.abs(diff))), cert


def predict_sweep(case, deltas):
    """m(delta) via the 1-D collapsed kernel: the road is flat on the slab, so
    the mollified defect is the xi2-only sliding average of the deficit."""
    h = case.v.grid.spacing
    n1, n2, _ = case.v.grid.extents
    a1, b1 = case.road_top
    out = []
    for d in deltas:
        ker = make_kernel(d, h)
        w1 = ker.weights.sum(axis=(0, 2))
        M = ker.margin
        resp = np.convolve(case.deficit, w1[::-1], mode="same") - case.deficit
        # admissible xi2 nodes: inside U^delta and reachable from the plateau
        # top with the whole kernel footprint still on the flat part
        lo_u = a1 + (M + 1) * h
        hi_u = b1 - (M + 1) * h
        ok = np.zeros(n2, dtype=bool)
        for j in range(M, n2 - M):
            x2 = j * h
            lo_i = max(M, int(np.ceil((lo_u - x2) / h)))
            hi_i = min(n1 - 1 - M, int(np.floor((hi_u - x2) / h)))
            ok[j] = lo_i <= hi_i
        out.append(-(case.scale / 16.0) * float(resp[ok].max()))
    return out


def run_case(spacing, epsilon):
    t0 = time.time()
    case = staircase_sweep_case(spacing)
    deltas = case.delta_sweep(7)
    res, cert = identity_residual(case)
    finite = np.isfinite(cert)
    pred = predict_sweep(case, deltas)
    alpha = case.phi.regularity.alpha
    rep = mollified_sign_certificate(
        case.v, case.phi, alpha=alpha, p=case.p, epsilon=epsilon, deltas=deltas
    )
    dt = time.time() - t0
    print(f"== frozen case at spacing {spacing!r} (declared alpha {alpha:.2f}, p {case.p:g}, "
          f"{dt:.1f}s)")
    print(f"   identity residual {res:.3e}   raw cert min {cert[finite].min():.3e}")
    print(f"   hypothesis_min {rep.hypothesis_min:.3e}")
    for d, m, q in zip(rep.deltas, rep.m_values, pred):
        print(f"   delta {d:.6f}   m {m: .6e}   1d-pred {q: .6e}")
    print(f"   fitted slope {rep.fitted_slope:.4f}   pass(m >= -eps) {rep.passed}")
    print(f"   reduced axes {list(rep.reduced_axes)}")
    return rep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spacing", type=float, default=1.0 / 128.0)
    ap.add_argument("--epsilon", type=float, default=1e-2)
    args = ap.parse_args()
    run_case(args.spacing, args.epsilon)


if __name__ == "__main__":
    main()
