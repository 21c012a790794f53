"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and margins.  Every tolerance is fixed here; the stated wall-clock
budgets are asserted.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gbl import certifier as ct
from gbl import graphs as gg
from gbl import grassmann as gr
from gbl import shrinking as sh
from gbl.rng import substream


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({self.elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, f"{self.name} exceeded budget"
        return False


def test_criterion_01_auxiliary_extrema():
    with Budget("1 auxiliary extrema", 1.0):
        records = {r.name: r for r in ct.auxiliary_extrema()}
        assert records["triple_overlap_ratio"].closed_form == 13.5
        assert abs(records["pair_overlap_ratio"].closed_form - (5 + 2 * math.sqrt(6))) < 1e-15
        assert abs(records["cubic_threshold"].closed_form - (187 - 38 * math.sqrt(19)) / 27) < 1e-15
        assert abs(records["cubic_threshold"].argmin - (10 + math.sqrt(19)) / 3) < 1e-5
        for rec in records.values():
            assert rec.abs_diff < 1e-8


def test_criterion_02_form_evaluation_consistency():
    with Budget("2 form/evaluation consistency", 5.0):
        for n, m in ((3, 2), (4, 3), (5, 4)):
            rng = substream(100, n * 10 + m)
            lams = ct.sample_admissible_lambdas(m, 3.0, 10_000, rng)
            hs = rng.standard_normal((10_000, m, n, n))
            hs = 0.5 * (hs + hs.transpose(0, 1, 3, 2))
            dv = ct.laplacian_v_batch(lams, hs)
            us = ct.flatten_h(hs)
            quad = np.empty_like(dv)
            for start in range(0, 10_000, 2000):
                Ms = ct.quadratic_form_batch(n, m, lams[start : start + 2000])
                quad[start : start + 2000] = np.einsum(
                    "ki,kij,kj->k", us[start : start + 2000], Ms, us[start : start + 2000]
                )
            rel = np.abs(quad - dv) / np.abs(dv)
            assert float(rel.max()) < 1e-10


def test_criterion_03_block_bounds_sampling():
    with Budget("3 block bounds on 1e6 samples", 60.0):
        rng = substream(101, 0)
        lams = ct.sample_admissible_lambdas(3, 3.0, 1_000_000, rng)
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        # triple block: smallest eigenvalue of the form minus (3 - v) I
        assert ct.block_margin("III", lams, vs)[1] >= -1e-9
        # pair bound: lambda_a lambda_b <= v - 1 for every pair
        pair_margin = min(
            float(np.min(vs - 1.0 - lams[:, a] * lams[:, b]))
            for a, b in ((0, 1), (0, 2), (1, 2))
        )
        assert pair_margin >= -1e-9
        # high-index group: I_j - 2 sum h^2 is a square plus positive terms
        hs = rng.standard_normal((1_000_000, 3))
        s = np.einsum("ka,ka->k", lams, hs)
        es1 = s**2 + np.einsum("ka,ka->k", lams**2, hs**2)
        assert float(es1.min()) >= -1e-9


def test_criterion_04_eps0_bisection():
    with Budget("4 diagonal-block eps0", 120.0):
        baselines = {2: 0.00715866, 3: 0.00932702, 4: 0.01227844}
        for m in (2, 3, 4):
            res = ct.find_eps0(m, samples=1_000_000, seed=0)
            assert res.eps0 > 0.0
            assert res.eps0 == pytest.approx(baselines[m], abs=1e-6)


def test_criterion_05_k0_certificates():
    with Budget("5 subharmonicity constant", 60.0):
        cert1 = ct.compute_K0(4, 3, (1.0,), audit_samples=1_000, seed=0)[0]
        assert cert1.k0 == 1.0
        prev = cert1.k0
        for beta0 in (1.5, 2.0, 2.5, 2.9):
            cert = ct.compute_K0(4, 3, (beta0,), audit_samples=5_000, seed=0)[0]
            assert cert.k0 > 0.0
            assert cert.k0 <= prev + 1e-9
            prev = cert.k0
        probe = ct.compute_K0(4, 3, (3.0,), audit_samples=5_000, seed=0)[0]
        assert -1e-8 <= probe.k0 <= 1e-3


def test_criterion_06_fd_cross_validation():
    with Budget("6 FD cross-validation", 30.0):
        G = gg.builtin("holomorphic_pair")
        rng = substream(102, 0)
        checked = 0
        while checked < 50:
            x = rng.uniform(-0.8, 0.8, 3)
            pg = gg.point_geometry(G, x)
            if pg.norm_b2 < 1e-3:
                continue
            checked += 1
            cf = gg.laplacian_v_closed_form(G, x)
            fd = gg.laplacian_v_finite_difference(G, x, step=1e-3)
            scale = max(abs(cf), abs(fd), pg.slope * pg.norm_b2)
            assert abs(cf - fd) / scale < 1e-3
        L = gg.builtin("lawson_osserman")
        for _ in range(50):
            x = rng.standard_normal(4)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            pg = gg.point_geometry(L, x)
            cf = gg.laplacian_v_closed_form(L, x)
            fd = gg.laplacian_v_finite_difference(L, x, step=1e-3)
            scale = max(abs(cf), abs(fd), pg.slope * pg.norm_b2)
            assert abs(cf - fd) / scale < 1e-3
        # order-2 convergence, measured where truncation error is nonzero
        P0 = gr.from_chart(np.full((3, 2), 0.07), gr.standard_plane(3, 2))
        x = np.array([0.3, 0.2, 0.7])
        cf = gg.laplacian_v_closed_form(G, x, P0)
        e1 = abs(gg.laplacian_v_finite_difference(G, x, P0, step=2e-3) - cf)
        e2 = abs(gg.laplacian_v_finite_difference(G, x, P0, step=1e-3) - cf)
        assert 1.5 < math.log2(e1 / e2) < 2.5


def test_criterion_07_minimality_and_cone():
    with Budget("7 minimality and cone", 10.0):
        rng = substream(103, 0)
        G = gg.builtin("holomorphic_pair")
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-2, 2, 3)
            worst = max(worst, float(np.linalg.norm(gg.point_geometry(G, x).mean_h)))
        assert worst < 1e-7
        L = gg.builtin("lawson_osserman")
        dirs = rng.standard_normal((1000, 4))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.uniform(0.5, 2.0, 1000)
        worst = 0.0
        slopes = np.empty(1000)
        for k, (d, r) in enumerate(zip(dirs, radii)):
            pg = gg.point_geometry(L, r * d)
            worst = max(worst, float(np.linalg.norm(pg.mean_h)))
            slopes[k] = gg.point_geometry(L, d).slope
        assert worst < 1e-7
        assert slopes.std() < 1e-8
        assert slopes.mean() > 3.0  # recorded value: exactly 9


def test_criterion_08_hessian_and_convexity():
    with Budget("8 Hessian and convexity region", 30.0):
        rng = substream(104, 0)
        P0 = gr.standard_plane(3, 2)
        worst = 0.0
        for _ in range(200):
            thetas = rng.uniform(0, 1.2, 2)
            O1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            O2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            Z = O1[:, :2] @ np.diag(np.tan(thetas)) @ O2.T
            P = gr.from_chart(Z, P0)
            P1 = gr.from_chart(rng.uniform(-1.0, 1.0, (3, 2)), P)
            frames = gr.adapted_frames(P, P0)
            X = gr.geodesic_velocity(P, P1, frames)
            quad = X.ravel() @ gr.hessian_v(P, P0) @ X.ravel()
            h = 1e-3
            vals = [gr.v_value(gr.geodesic(P, P1, t), P0) for t in (-2 * h, -h, 0.0, h, 2 * h)]
            fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
            worst = max(worst, abs(fd - quad) / abs(quad))
        assert worst < 1e-5
        for beta0 in (0.5, 1.0, 1.4):
            for _ in range(100):
                thetas = rng.uniform(0, beta0 / 2, 2)
                O1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                O2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
                P = gr.from_chart(O1[:, :2] @ np.diag(np.tan(thetas)) @ O2.T, P0)
                v = gr.v_value(P, P0)
                assert np.linalg.eigvalsh(gr.hessian_v(P, P0))[0] >= math.cos(beta0) * v - 1e-9
        for n, m in ((2, 2), (3, 2)):
            Zs = gr.sample_chart_sublevel(n, m, 2.0, 50_000, rng)
            # principal angles to the chart center: arctan of the singular values
            thetas = np.arctan(np.linalg.svd(Zs[gr.chart_v(Zs) < 2.0], compute_uv=False))
            assert float(np.max(thetas[:, 0] + thetas[:, 1])) < math.pi / 2


def test_criterion_09_shrinking_suite():
    with Budget("9 center replacement and iteration", 60.0):
        assert abs(sh.threshold(3.0) - math.sqrt(6.0) / 2.0) < 1e-12
        eps = sh.compute_epsilon1(3.0, 2.9, m=2)
        assert eps.epsilon1 > 0.0
        rng = substream(105, 0)
        P1 = gr.standard_plane(2, 2)
        from scipy.optimize import brentq

        for b in (2.0, 2.5, 2.9):
            params = sh.ShrinkParameters(a=3.0, b=b, beta0=2.9)
            Z0 = rng.standard_normal((2, 2))
            scale = brentq(lambda t: float(gr.chart_v(t * Z0)) - b, 0.0, 100.0)
            Q = gr.from_chart(scale * Z0, P1)
            res = sh.shrink_center(P1, Q, params)
            assert sh.containment_check(P1, res.p2, params, samples=10_000, seed=1) >= -1e-9
            if res.case == "CaseII":
                assert res.new_bound_on_q <= b - eps.epsilon1 + 1e-12
        cloudZ = gr.sample_chart_sublevel(2, 2, 2.9, 48, substream(105, 1))
        cloud = [gr.from_chart(Z, P1) for Z in cloudZ]
        trace = sh.iterate(
            cloud, 2.9, sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9), epsilon1=eps.epsilon1
        )
        k_formula = int((3.0 - math.sqrt(6.0) / 2.0) / eps.epsilon1) + 1
        assert trace.k_planned == k_formula
        assert trace.k_actual <= k_formula
        assert trace.bounds[-1] < math.sqrt(6.0) / 2.0


def test_criterion_10_mean_gauss_image():
    with Budget("10 mean Gauss image", 10.0):
        G = gg.builtin("holomorphic_pair")
        P0 = gr.standard_plane(3, 2)
        rng = substream(106, 0)
        for _ in range(20):
            center = rng.uniform(-0.4, 0.4, 3)
            radius = float(rng.uniform(0.05, 0.3))
            mean = gg.mean_gauss_image(G, center, radius, order=6)
            sup_v = 1.0 + 4.0 * (np.linalg.norm(center[:2]) + radius) ** 2
            assert gr.v_value(mean, P0) <= sup_v + 1e-9
        worst = 0.0
        for _ in range(10_000):
            Z = rng.uniform(-2.0, 2.0, (3, 2))
            v = float(gr.chart_v(Z[None])[0])
            worst = max(worst, abs(np.linalg.norm(gr.t_embedding(Z)) - (v - 1.0)))
        assert worst < 1e-10


def test_criterion_11_cli_determinism():
    with Budget("11 CLI determinism", 120.0):
        args = [
            sys.executable, "-m", "gbl", "certify",
            "--n", "3", "--m", "2", "--beta0", "2.5", "--samples", "2000", "--seed", "42",
        ]
        out1 = subprocess.run(args, capture_output=True, timeout=300)
        out2 = subprocess.run(args, capture_output=True, timeout=300)
        assert out1.returncode == 0
        assert out1.stdout == out2.stdout
        payload = json.loads(out1.stdout)
        assert payload["summary"]["fail"] == 0


def test_criterion_12_default_shrink():
    # the containment check at the default (4, 3) draws 50,000 chart matrices
    with Budget("12 default gbl shrink", 30.0):
        out = subprocess.run([sys.executable, "-m", "gbl", "shrink"], capture_output=True, timeout=300)
        assert out.returncode == 0
        assert json.loads(out.stdout)["summary"]["fail"] == 0
