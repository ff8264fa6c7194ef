"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a `[acceptance] criterion N: PASS/FAIL` line (run pytest
with -s to see them) and enforces its runtime budget.  Monte Carlo tests use
fixed seeds; thresholds are never widened to make a seed pass.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from spherefield import cli
from spherefield import equivalence as eq
from spherefield import harmonics as sh
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield import simulate as sim
from _reference import zonal_sum


@contextlib.contextmanager
def criterion(n, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL - {description}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, \
        f"criterion {n} runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    print(f"[acceptance] criterion {n}: PASS - {description} ({elapsed:.1f}s)",
          flush=True)


def test_criterion_1_gegenbauer_generating_function():
    with criterion(1, "Gegenbauer generating-function identity to 1e-9", 1.0):
        t = np.linspace(-1.0, 1.0, 101)
        alpha = 0.3
        for lam in (0.5, 1.0, 1.5, 2.5):
            c = sh.gegenbauer_all(lam, 60, t)
            series = np.tensordot(alpha ** np.arange(61), c, axes=([0], [0]))
            closed = (1.0 - 2.0 * alpha * t + alpha ** 2) ** (-lam)
            assert np.max(np.abs(series - closed)) < 1e-9


def test_criterion_2_addition_theorem():
    with criterion(2, "addition theorem to 1e-10, d in {1,2}, l <= 10", 5.0):
        rng = np.random.default_rng(20240815)
        for d in (1, 2):
            lam = sh.gegenbauer_order(d)
            for _ in range(100):
                x = rng.standard_normal(d + 1)
                y = rng.standard_normal(d + 1)
                x /= np.linalg.norm(x)
                y /= np.linalg.norm(y)
                t = float(np.clip(x @ y, -1.0, 1.0))
                c = sh.gegenbauer_all(lam, 10, t)
                for l in range(11):
                    expect = sh.addition_constant(d, l) * c[l]
                    assert abs(zonal_sum(d, l, x, y) - expect) < 1e-10


def _valid_multiquadratic(rng, d):
    a11, a22 = rng.uniform(0.1, 0.9, 2)
    a12 = float(rng.uniform(0.05, math.sqrt(a11 * a22)))
    bound = ((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** ((d - 1) / 2)
    rho = float(rng.uniform(0.05, 0.98) * min(bound, 0.999))
    sigma = tuple(rng.uniform(0.5, 2.0, 2))
    return md.MultiquadraticParams(d=d, sigma=sigma, rho12=rho,
                                   alpha=(a11, a22, a12))


def test_criterion_3_multiquadratic_validity_sweep():
    with criterion(3, "validity sweep: PSD coefficients to n=500; "
                      "rho violation breaks det(b_0)", 10.0):
        rng = np.random.default_rng(33)
        n = np.arange(501)
        checked = 0
        while checked < 100:
            d = 2 if checked % 2 == 0 else 3
            p = _valid_multiquadratic(rng, d)
            assert md.multiquadratic_validity(p).valid
            e11, e22, e12 = md.multiquadratic_coeff_entries(p, n)
            tr = e11 + e22
            live = tr > 0.0  # beyond ~degree 450 small-alpha entries underflow
            # min-eig >= -1e-14 * trace is scale-free: check it on the
            # trace-normalized matrix, whose entries are O(1) at every degree
            f11 = e11[live] / tr[live]
            f22 = e22[live] / tr[live]
            f12 = e12[live] / tr[live]
            lmin_norm = 0.5 * (1.0 - np.sqrt((f11 - f22) ** 2 + 4.0 * f12 ** 2))
            assert np.all(lmin_norm >= -1e-14)
            checked += 1

        # violating the rho bound by 5% makes det(b_0) negative (the
        # det-positivity threshold is minimized at n = 0)
        broken = 0
        while broken < 20:
            p = _valid_multiquadratic(rng, 2 if broken % 2 == 0 else 3)
            a11, a22, a12 = p.alpha
            bound = ((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** ((p.d - 1) / 2)
            if bound * 1.05 >= 0.999:
                continue
            bad = md.MultiquadraticParams(d=p.d, sigma=p.sigma,
                                          rho12=bound * 1.05, alpha=p.alpha)
            e11, e22, e12 = md.multiquadratic_coeff_entries(bad, [0])[:, 0]
            assert e11 * e22 - e12 ** 2 < 0.0
            broken += 1


def test_criterion_4_closed_form_series_consistency():
    with criterion(4, "d=3 closed form equals series (L=400) to 1e-8", 2.0):
        p = md.MultiquadraticParams(d=3, sigma=(1.0, 1.2), rho12=0.4,
                                    alpha=(0.5, 0.6, 0.5))
        kernel = sb.IsotropicKernel(md.build_sequence(p, 400))
        for theta in np.arange(0.0, math.pi + 1e-12, math.pi / 8):
            cf = md.multiquadratic_kernel_closed_form(p, float(theta))
            assert cf.series_consistent
            val = kernel(math.cos(theta)).value
            assert np.max(np.abs(val - cf.matrix)) < 1e-8


def test_criterion_5_equivalence_classifications():
    with criterion(5, "equivalence classifications reproduced numerically "
                      "at L=K=512", 60.0):
        # (a) equal sigma/nu, alpha 1 vs 2: summable terms decaying like l^-2
        p1 = md.LegendreMaternParams(1.0, 1.0, 1.0, 512, 512)
        p2 = md.LegendreMaternParams(1.0, 2.0, 1.0, 512, 512)
        series = eq.functional_series(md.build_sequence(p1), md.build_sequence(p2),
                                      fit_window=(64, 512))
        assert -2.5 <= series.decay_fit <= -1.5
        s = series.partial_sums
        assert (s[512] - s[256]) / s[512] < 0.05          # converging
        assert (s[512] - s[384]) < (s[384] - s[256])      # increments shrink
        verdict_a = eq.classify_numeric(series)
        assert verdict_a.verdict != eq.ORTHOGONAL

        # (b) nu mismatch 1.0 vs 1.2: terms do not vanish -> orthogonal
        p3 = md.LegendreMaternParams(1.0, 1.0, 1.2, 512, 512)
        series_b = eq.functional_series(md.build_sequence(p1), md.build_sequence(p3))
        assert float(np.min(series_b.terms[64:])) > 1e-8
        assert eq.classify_numeric(series_b).verdict == eq.ORTHOGONAL

        # (c) multiquadratic bullet cases: closed form equivalent, numeric
        # never orthogonal
        cases = [
            ((0.5, 0.5, 0.30, 0.4), (0.5, 0.5, 0.35, 0.6)),   # fast decay
            ((0.9, 0.9, 0.88, 0.4), (0.9, 0.9, 0.89, 0.45)),  # slow decay
            ((0.6, 0.4, 0.30, 0.5), (0.6, 0.4, 0.40, 0.5)),   # unequal marginals
        ]
        for (a11, a22, a12a, rho_a), (b11, b22, a12b, rho_b) in cases:
            qa = md.MultiquadraticParams(d=2, sigma=(1.0, 1.1), rho12=rho_a,
                                         alpha=(a11, a22, a12a))
            qb = md.MultiquadraticParams(d=2, sigma=(1.0, 1.1), rho12=rho_b,
                                         alpha=(b11, b22, a12b))
            closed = eq.classify_multiquadratic(qa, qb)
            assert closed.verdict == eq.EQUIVALENT
            numeric = eq.classify_numeric(eq.functional_series(
                md.build_sequence(qa, 512), md.build_sequence(qb, 512)))
            assert numeric.verdict in (eq.EQUIVALENT, eq.INCONCLUSIVE)


def test_criterion_6_marginalization_inequality():
    with criterion(6, "scalar term <= functional term, 1000 random pairs "
                      "and both families to l=512", 30.0):
        rng = np.random.default_rng(66)
        violations = 0
        for _ in range(1000):
            p = int(rng.integers(1, 9))
            a1 = rng.standard_normal((p, p))
            a2 = rng.standard_normal((p, p))
            b1 = a1 @ a1.T + 0.05 * np.eye(p)
            b2 = a2 @ a2.T + 0.05 * np.eye(p)
            u = rng.standard_normal(p)
            hl = int(rng.integers(1, 40))
            q1, q2 = (sb.SchoenbergSequence(2, sb.MATRIX, [b]).quadratic_forms(u)[0]
                      for b in (b1, b2))
            scalar = hl * (q1 / q2 - 1.0) ** 2
            functional = eq.hs_term(b1, b2, hl)
            if scalar > functional * (1.0 + 1e-10) + 1e-18:
                violations += 1
        assert violations == 0

        # model families, every degree l <= 512 (pairs chosen so functional
        # terms stay above the double-precision conjugation floor)
        mq_pairs = [
            ((1.0, 1.1, 0.40, (0.9, 0.9, 0.88)), (1.0, 1.1, 0.45, (0.9, 0.9, 0.89))),
            ((1.0, 1.0, 0.40, (0.6, 0.5, 0.30)), (1.2, 1.0, 0.40, (0.6, 0.5, 0.30))),
        ]
        for (s1a, s2a, ra, aa), (s1b, s2b, rb, ab) in mq_pairs:
            qa = md.MultiquadraticParams(d=2, sigma=(s1a, s2a), rho12=ra, alpha=aa)
            qb = md.MultiquadraticParams(d=2, sigma=(s1b, s2b), rho12=rb, alpha=ab)
            seq_a = md.build_sequence(qa, 512)
            seq_b = md.build_sequence(qb, 512)
            functional = eq.functional_series(seq_a, seq_b).terms
            for u in (np.array([1.0, 0.0]), np.array([0.3, -0.9]),
                      rng.standard_normal(2)):
                scalar = eq.scalar_marginal_series(seq_a, seq_b, u).terms
                bad = scalar > functional * (1.0 + 1e-10) + 1e-18
                assert not np.any(bad)

        lm_pairs = [
            (md.LegendreMaternParams(1.0, 1.0, 1.0, 512, 512),
             md.LegendreMaternParams(1.0, 2.0, 1.0, 512, 512)),
            (md.LegendreMaternParams(1.0, 1.0, 1.0, 512, 512),
             md.LegendreMaternParams(1.0, 1.0, 1.2, 512, 512)),
        ]
        for pa, pb in lm_pairs:
            seq_a, seq_b = md.build_sequence(pa), md.build_sequence(pb)
            functional = eq.functional_series(seq_a, seq_b).terms
            for _ in range(3):
                u = np.abs(rng.standard_normal(513)) + 1e-3
                scalar = eq.scalar_marginal_series(seq_a, seq_b, u).terms
                bad = scalar > functional * (1.0 + 1e-10) + 1e-18
                assert not np.any(bad)


def _mc_pairs():
    return np.array([[[0.0, 0.0, 1.0],
                      [math.sin(k * math.pi / 9), 0.0, math.cos(k * math.pi / 9)]]
                     for k in range(10)])


@pytest.mark.slow
def test_criterion_7_monte_carlo_covariance():
    with criterion(7, "sampled covariance reproduces the kernel (|z| < 4, "
                      "calibrated >= 95%)", 300.0):
        pairs = _mc_pairs()
        mq = md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=(1.0, 1.2), rho12=0.4,
                                    alpha=(0.5, 0.6, 0.5)), 30)
        lm = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 30, 30))

        # headline checks at the stated budget
        rep_mq = sim.monte_carlo_kernel_check(mq, pairs, 5000, seed=1001)
        assert rep_mq.passed, f"multiquadratic z_max={rep_mq.z_max:.2f}"
        rep_lm = sim.monte_carlo_kernel_check(lm, pairs, 5000, seed=1002)
        assert rep_lm.passed, f"legendre-matern z_max={rep_lm.z_max:.2f}"

        # calibration: pass rate of the standardized gate over 100 repeats
        # (z pass rates are N-invariant; smaller N keeps the budget)
        passes_mq = sum(
            sim.monte_carlo_kernel_check(mq, pairs, 2000, seed=7, stream=r).passed
            for r in range(100))
        assert passes_mq >= 95, f"multiquadratic calibration {passes_mq}/100"
        passes_lm = sum(
            sim.monte_carlo_kernel_check(lm, pairs, 400, seed=8, stream=r).passed
            for r in range(100))
        assert passes_lm >= 95, f"legendre-matern calibration {passes_lm}/100"


def test_criterion_8_coefficient_law():
    with criterion(8, "coefficient cross-moments match delta delta bhat_l "
                      "at 4 SE", 60.0):
        seq = md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=(1.0, 1.2), rho12=0.4,
                                    alpha=(0.5, 0.6, 0.5)), 5)
        n_draws = 10_000
        rng = sim.make_generator(808)
        blocks = []
        for _ in range(n_draws):
            rows = [sim.sample_coefficients(seq, l, rng) for l in range(6)]
            blocks.append(np.concatenate(rows, axis=0))      # (36, 2)
        a = np.stack(blocks).reshape(n_draws, 72)             # (l, m, component)

        emp = a.T @ a / n_draws
        second = (a ** 2).T @ (a ** 2) / n_draws
        se = np.sqrt(np.maximum(second - emp ** 2, 0.0) / n_draws)

        target = np.zeros((72, 72))
        offset = 0
        for l in range(6):
            bhat = sim.coefficient_covariance(seq, l)
            h = sh.h_dim(2, l)
            for m in range(h):
                i = offset + 2 * m
                target[i:i + 2, i:i + 2] = bhat
            offset += 2 * h

        diff = np.abs(emp - target)
        z = np.zeros_like(diff)
        live = se > 0
        z[live] = diff[live] / se[live]
        assert np.all(diff[~live] == 0.0)
        assert float(np.max(z)) < 4.0, f"max |z| = {float(np.max(z)):.2f}"


def test_criterion_9_scale_invariance():
    with criterion(9, "hs term invariant under per-degree rescaling (1e-12)", 5.0):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            p = int(rng.integers(1, 9))
            a1 = rng.standard_normal((p, p))
            a2 = rng.standard_normal((p, p))
            b1 = a1 @ a1.T + 0.05 * np.eye(p)
            b2 = a2 @ a2.T + 0.05 * np.eye(p)
            c = 10.0 ** rng.uniform(-3, 3)
            hl = int(rng.integers(1, 60))
            t0 = eq.hs_term(b1, b2, hl)
            t1 = eq.hs_term(c * b1, c * b2, hl)
            assert abs(t1 - t0) <= 1e-12 * max(1.0, abs(t0))


def test_criterion_10_sample_determinism(tmp_path, capsys):
    with criterion(10, "cmd_sample manifests reproduce byte-identical outputs", 60.0):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": "multiquadratic", "d": 2,
                                   "sigma": [1, 1], "rho12": 0.4,
                                   "alpha": [0.5, 0.5, 0.45]}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"kind": "uniform", "d": 2, "n": 6, "seed": 12}))
        outs = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / run_dir
            code = cli.main(["sample", "--config", str(cfg), "--grid", str(grid),
                             "--n-samples", "3", "--seed", "99", "--l-max", "16",
                             "--out", str(out)])
            assert code == 0
            outs.append(out)
        capsys.readouterr()
        names = ["manifest.json"] + [f"sample_{i:04d}.csv" for i in range(3)]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["streams"] == [0, 1, 2]
