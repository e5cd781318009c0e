"""End-to-end acceptance: one pass/fail check per shipped guarantee.

Each test states its tolerance and budget inline; helper fixtures are
deliberately avoided so every check reads as a single self-contained
claim about the public API.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers_poly import Poly3, fit_positive_scale
from helpers_report import column_distances, far_field_max
from levicheck.cli import _violators, run_scenario
from levicheck.fields import DiscField, Grid3, ScalarField3
from levicheck.levi import (
    _log_weights,
    from_graph_partials,
    g2_model,
    delta_tau,
    graph_levi_fields,
    green_identity_report,
    levi_condition_2d,
    tau_fields,
)
from levicheck.potential import (
    AtomicMeasure,
    GreenPotential,
    box_dimension,
    build_square_cantor,
    disc_mass_recovery,
    frostman_certificate,
    frostman_measure,
    graph_set_points,
)
from levicheck.staircase import (
    build_cantor,
    default_alphas,
    fat_F,
    find_x0,
    hartogs_ball_domain,
    hartogs_staircase,
    subharmonicity_scan,
)


def centered_grid(spacing, extent):
    half = extent // 2
    return Grid3((-spacing * half,) * 3, spacing, (extent, extent, extent))


def test_01_levi_dual_route_on_1000_random_polynomials():
    # graph route == -Delta_tau route to 1e-9, and matches the ambient
    # route on x1 - phi up to one fitted positive scalar, residual 1e-6.
    # Budget: 10 s.
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    grid = centered_grid(1e-4, 7)
    node = (3, 3, 3)
    graph_vals, tau_vals, ambient_vals = [], [], []
    for _ in range(1000):
        poly = Poly3.random(rng, degrees=(2, 3))
        phi = ScalarField3.from_function(grid, poly)
        graph_vals.append(graph_levi_fields(phi)[node])
        tau_vals.append(-delta_tau(phi, tau_fields(phi.fd_gradient(node)), node))
        rho = from_graph_partials(poly.grad, poly.hess)
        ambient_vals.append(levi_condition_2d(rho, (0.0, 0.0)))
    graph_vals = np.array(graph_vals)
    tau_vals = np.array(tau_vals)
    ambient_vals = np.array(ambient_vals)
    elapsed = time.perf_counter() - start

    assert np.max(np.abs(graph_vals - tau_vals)) <= 1e-9
    scale = fit_positive_scale(ambient_vals, graph_vals)
    assert scale > 0.0
    assert np.max(np.abs(ambient_vals - scale * graph_vals)) <= 1e-6
    assert elapsed <= 10.0


def test_02_concave_quadric_anchor_minus_quarter():
    # Model Re z1 - |z2|^2 at the origin: exactly -1/4 on the symbolic
    # route, within 1e-6 on the finite-difference route at h = 1e-3.
    symbolic = levi_condition_2d(g2_model, (0.0, 0.0))
    assert symbolic == -0.25
    phi = ScalarField3.from_function(
        centered_grid(1e-3, 7), lambda a, b, c: b * b + c * c
    )
    assert abs(graph_levi_fields(phi)[3, 3, 3] + 0.25) <= 1e-6


def test_03_mollified_sign_sweep_with_decay_rate(tmp_path):
    # Shipped (alpha, p) = (0.9, 6) staircase-lifted case at h = 1/128:
    # m(delta) >= -1e-2 at every point of the 7-point sweep, fitted slope
    # within 0.2 of alpha - 3/p = 0.4, the target the mollify-sweep
    # scenario reports.  Budget: 5 min.
    start = time.perf_counter()
    params = {"spacing": 1.0 / 128.0, "epsilon": 1e-2, "count": 7}
    config = {"scenario": "mollify-sweep", "params": params, "outdir": str(tmp_path)}
    scenario, _ = run_scenario(config)
    elapsed = time.perf_counter() - start
    checks = {a["name"]: a for a in scenario["assertions"]}
    band = checks["decay_slope_within_band"]["detail"]
    m_values = scenario["tables"]["certificate"]["m_values"]

    assert len(m_values) == 7
    assert min(m_values) >= -1e-2
    assert band["rate_target"] == pytest.approx(0.4, abs=1e-12)
    assert abs(band["fitted_slope"] - 0.4) <= 0.2
    assert checks["mollified_sign_sweep"]["passed"] and scenario["passed"]
    assert elapsed <= 300.0


def test_04_staircase_exact_identities_and_growth():
    # Interval lengths 2^-n prod(1 - alpha_k) exactly for n <= 10;
    # F'' = -1 (1e-4) inside sampled gaps; F(0) = F(1) = 0 (1e-12);
    # growth constant L = ((1 - alpha1)^-1 - 1)/2 at 1000 offsets for
    # alpha1 in {1/2, 9/10}.
    system = build_cantor(default_alphas(Fraction(9, 10), 10))
    for n in range(1, 11):
        expected = Fraction(1, 2**n)
        for k in range(n):
            expected *= 1 - system.alphas[k]
        assert system.interval_length(n) == expected

    fat = fat_F(system)
    assert abs(float(fat(0.0))) <= 1e-12
    assert abs(float(fat(1.0))) <= 1e-12
    assert fat.value_exact(0) == 0 and fat.value_exact(1) == 0
    h = 2.0**-12
    for level in (0, 1, 2):
        # a generation's first gap lies between the next generation's first two intervals
        left, right = system.level(level + 1)[:2]
        ga, gb = left[1] / system.denominator, right[0] / system.denominator
        t = 0.5 * (ga + gb)
        second = (fat(t + h) - 2.0 * fat(t) + fat(t - h)) / (h * h)
        assert second == pytest.approx(-1.0, abs=1e-4)

    for alpha1 in (Fraction(1, 2), Fraction(9, 10)):
        cert = find_x0(fat_F(build_cantor(default_alphas(alpha1, 10))), n_offsets=1000)
        assert cert.offsets_checked == 1000
        assert cert.growth == (1 / (1 - alpha1) - 1) / 2


def test_05_hartogs_cap_scan_contrast():
    # Ball cap: zero violating nodes.  Staircase cap at alpha1 = 0.99:
    # nonempty violating set confined to 2h around the kept columns of
    # the base segment, strictly subharmonic (<= -0.5) at distance > 0.1.
    # Budget: 2 min at h = 1/512.
    start = time.perf_counter()
    spacing = 1.0 / 512.0
    ball = subharmonicity_scan(hartogs_ball_domain(spacing=spacing))
    domain = hartogs_staircase(alpha1=Fraction(99, 100), spacing=spacing)
    stair = subharmonicity_scan(domain.cap)
    elapsed = time.perf_counter() - start

    assert ball.violating_count() == 0
    assert stair.violating_count() > 0
    dist_x = column_distances(domain.cap, domain.columns)
    # horizontal distances of the violators to the kept columns
    dist_h = _violators(domain.cap.axis(), stair.laplacian, dist_x)[3]
    assert np.max(dist_h) <= 2.0 * spacing + 1e-12
    assert far_field_max(stair, dist_x) <= -0.5
    assert elapsed <= 120.0


def test_06_green_potential_anchors():
    # Boundary vanishing at 512 samples (1e-10); single-atom value
    # u(1/2) = log 2 (1e-12); flux mass recovery: 2% over the 0.9 disc
    # and 5% per occupied generation-5 cell.
    square_set = build_square_cantor(1.0, 5)
    measure = frostman_measure(square_set)
    potential = GreenPotential(measure)

    theta = 2.0 * math.pi * (np.arange(512) + 0.5) / 512
    boundary = potential.grid_values(np.cos(theta), np.sin(theta))
    assert np.max(np.abs(boundary)) <= 1e-10

    single = GreenPotential(AtomicMeasure(locations=[0j], masses=[1.0]))
    assert abs(single(0.5 + 0j) - math.log(2.0)) <= 1e-12

    assert abs(disc_mass_recovery(potential) - 1.0) <= 0.02

    # Midpoint flux through each occupied cell boundary, all cells in
    # one vectorized pass; every cell holds exactly its centered atom.
    side = square_set.side
    samples = 64
    fd = side / 64.0
    corners = np.asarray(square_set.squares)
    t = (np.arange(samples) + 0.5) * (side / samples)
    zero = np.zeros(samples)
    # per-edge offsets (dx, dy) and outward normals (nx, ny)
    edges = [
        (t, zero, 0.0, -1.0),
        (t, np.full(samples, side), 0.0, 1.0),
        (zero, t, -1.0, 0.0),
        (np.full(samples, side), t, 1.0, 0.0),
    ]
    px = np.concatenate(
        [corners[:, 0:1] + dx[None, :] for dx, dy, nx, ny in edges], axis=1
    )
    py = np.concatenate(
        [corners[:, 1:2] + dy[None, :] for dx, dy, nx, ny in edges], axis=1
    )
    nx = np.concatenate(
        [np.full((len(corners), samples), nxv) for _, _, nxv, _ in edges], axis=1
    )
    ny = np.concatenate(
        [np.full((len(corners), samples), nyv) for _, _, _, nyv in edges], axis=1
    )
    up = potential.grid_values(
        (px + fd * nx).ravel(), (py + fd * ny).ravel()
    ).reshape(px.shape)
    dn = potential.grid_values(
        (px - fd * nx).ravel(), (py - fd * ny).ravel()
    ).reshape(px.shape)
    normal_derivative = (up - dn) / (2.0 * fd)
    flux = normal_derivative.sum(axis=1) * (side / samples)
    masses = -flux / (2.0 * math.pi)
    expected = 0.25**5
    assert np.max(np.abs(masses - expected)) / expected <= 0.05


def test_07_frostman_growth_and_box_dimensions():
    # alpha = 1: certified constants C(n) move by at most a factor 2 per
    # generation for n = 4, 5, 6; planar box dimension within 0.1 of
    # alpha; boundary graph set dimension within 0.15 of 1 + alpha.
    constants = {}
    for n in (4, 5, 6):
        cert = frostman_certificate(build_square_cantor(1.0, n))
        constants[n] = cert.constant
    for n in (4, 5):
        ratio = constants[n + 1] / constants[n]
        assert 0.5 <= ratio <= 2.0

    planar_set = build_square_cantor(1.0, 8)
    a = planar_set.ratio
    planar = box_dimension(
        planar_set.centers().T, [0.7 * a**k for k in range(1, 7)]
    )
    assert abs(planar.slope - 1.0) <= 0.1

    graph_pot = GreenPotential(frostman_measure(build_square_cantor(1.0, 5)))
    graph_cols = graph_set_points(
        build_square_cantor(1.0, 6), graph_pot, n_angles=2048
    )
    graph = box_dimension(graph_cols, [2.0**-k for k in range(3, 10)])
    assert abs(graph.slope - 2.0) <= 0.15


def test_08_green_identity_residuals():
    # Normalized sub-mean-value identity: residual <= 1e-5 for
    # u in {Re zeta, |zeta|^2, |zeta|^4} at r in {0.25, 0.5, 1}.
    spacing = 1.0 / 512.0
    fields = [
        DiscField.from_function(spacing, lambda x, y: x),
        DiscField.from_function(spacing, lambda x, y: x * x + y * y),
        DiscField.from_function(spacing, lambda x, y: (x * x + y * y) ** 2),
    ]
    weights = {r: _log_weights(fields[0], r) for r in (0.25, 0.5, 1.0)}
    for field in fields:
        lap = field.laplacian_field()
        for r in (0.25, 0.5, 1.0):
            assert green_identity_report(field, r, weights[r], lap).residual <= 1e-5


# sha256 of every file each standard run writes, runtime.txt aside,
# recorded from the code that last changed an output; any byte that moves
# in a report or a CSV export fails test_09 by name
STANDARD_RUN_DIGESTS = {
    "green-identity": {
        "report.json": "580cd29274bced478f4cf390a1f1715eefceffad2b41f2024d305959c6d8b0e1",
        "residuals.csv": "e5c728fadae4c98bc80be62a1ce58ccd342711bf68a760f227df586a858b7f6a",
    },
    "levi-check-ball": {
        "levi_nodes.csv": "7337249f316f4040d0de2282723be598eb8ec932ff89592281f539ab7ad42707",
        "report.json": "41082eb2df1dfa0a6f96d62c6c769829f17f374871f052c960dc3b34615980e2",
    },
    "levi-check-g2": {
        "levi_nodes.csv": "dc642d9bd13e0d2cb402ac88119aed41007ba5ec71eaebe2232e05e6cc3f96b2",
        "report.json": "2d8e018a76c0777f176d437596a6a2e8ed10b3bde4754c5b47354487d4cd2717",
    },
    "mollify-sweep": {
        "report.json": "756168ecc90ac0b499307b6d2fc4d9d75749b5792980420d72a99016996a9167",
        "sweep.csv": "8e83404fe2fc54f30e2b74c958eb750681e3de26f1fa8521350b2011a86ab221",
    },
    "staircase-build": {
        "intervals.csv": "267368b3c4f8220289ed400e90debb13801c4418e9bb4d92d54de265bb3265d2",
        "report.json": "4fb121f0234bf85422daaecc9227d5beb2c1e7296f730096405c9f3ca1b1d1f2",
    },
    "hartogs-scan-ball": {
        "report.json": "1b862fedec7a152eacae60e8ade295017aad334386485fa83884c5c4388471f4",
        "violators.csv": "3759aa53312f97d797a01ecc1929c6c3ef501bbe92a6eb3d539cff0635e43139",
    },
    "hartogs-scan-staircase": {
        "report.json": "124636ac0d1f266bea92dd534883d60b309985ba537716030c1b82d74ae05671",
        "violators.csv": "698ff193064f832dc7b1b5a61ec0456b526f0a82bbb9bf9032f435ca5783741c",
    },
    "cantor-potential": {
        "dimension.csv": "441d8da5d67d1460d987f3bf54f2ca2cdefb8f7fae0420601d7bc78bcedf13dd",
        "growth.csv": "61075d8eb2289780b6020e30417d70b085f01cb202d7fa5fe17545dd0fda096d",
        "report.json": "0910a5eeafc1c84cf35efadda3bd7c45df0a0e315d8342fcae3b5c43750f7085",
    },
    "slice-check": {
        "report.json": "c8480d64cc63fcea8d5926115aa9f81a8f371c9f69ceefe9cce66e05af6542d2",
        "slices.csv": "672b89f98d23ea38d05bd2bc4e80a7ff78ecafcfd2cfd5f638aaaa9964453c77",
    },
}


def _load_standard_runs():
    """The nine standard runs, read from scripts/run_all_scenarios.py, the
    one list of them (scripts/ is no package: loaded from its path)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_all_scenarios.py"
    spec = importlib.util.spec_from_file_location("run_all_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.RUNS)


STANDARD_RUNS = _load_standard_runs()

# the worker thread counts test_09 runs each standard run at
THREAD_COUNTS = {
    "green-identity": (1, 4, 8, 8),
    "levi-check-ball": (1, 4),
    "levi-check-g2": (1, 4),
    "mollify-sweep": (1, 4),
    "staircase-build": (1, 4),
    "hartogs-scan-ball": (1, 4),
    "hartogs-scan-staircase": (1, 4),
    "cantor-potential": (1, 4),
    "slice-check": (1, 4),
}


def _outdir_digests(outdir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
        if path.name != "runtime.txt"
    }


def test_09_report_determinism_across_threads(tmp_path):
    # Same config and seed: byte-identical report.json on rerun and across
    # worker thread counts, for all nine standard runs, each with its
    # default parameters; every output file also matches its pinned digest.
    digests = {}
    for name, scenario in STANDARD_RUNS.items():
        thread_counts = THREAD_COUNTS[name]
        outdir = tmp_path / name
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**scenario, "outdir": str(outdir), "seed": 0}))
        blobs = []
        for threads in thread_counts:
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, "-m", "levicheck", "run", "--config", str(config)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((outdir / "report.json").read_bytes())
            digests[name] = _outdir_digests(outdir)
            assert digests[name] == STANDARD_RUN_DIGESTS.get(name), (name, threads)
        assert all(blob == blobs[0] for blob in blobs), scenario

    # the BLAS variables leave the block passes' pool alone: it takes one
    # worker per CPU this process may use.  A cantor-potential child (the
    # Green-kernel tiles), a levi-check child (the Levi slabs) and a
    # mollify-sweep child (the certificate's Delta_tau slabs), each pinned to
    # one CPU (the affinity call acts on the child only), run it with one
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))

        def pin():
            os.sched_setaffinity(0, {cpu})

        probe = "from levicheck.fields import _workers; print(_workers())"
        child = [sys.executable, "-c", probe]
        proc = subprocess.run(child, preexec_fn=pin, capture_output=True, text=True)
        assert proc.stdout.strip() == "1", proc.stderr
        for name in ("cantor-potential", "levi-check-ball", "mollify-sweep"):
            command = [sys.executable, "-m", "levicheck", "run"]
            command += ["--config", str(tmp_path / f"{name}.json")]
            proc = subprocess.run(command, preexec_fn=pin, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert _outdir_digests(tmp_path / name) == STANDARD_RUN_DIGESTS[name], name
