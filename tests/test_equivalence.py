import csv
import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import sqrtm

from spherefield import _blas
from spherefield import equivalence as eq
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield.harmonics import h_dim
from _reference import validate_schema


def random_spd(rng, p, jitter=0.05):
    a = rng.standard_normal((p, p))
    return a @ a.T + jitter * np.eye(p)


def brute_force_term(b1, b2, hl):
    """Independent route: scipy sqrtm of the inverse, dense conjugation."""
    s = np.real(sqrtm(np.linalg.inv(b2)))
    m = s @ b1 @ s
    return hl * float(np.sum((m - np.eye(b1.shape[0])) ** 2))


def scalar_seq(d, values):
    return sb.SchoenbergSequence(d, values)


class TestHsTerm:
    def test_identical_coefficients_exact_zero(self):
        rng = np.random.default_rng(0)
        b = random_spd(rng, 4)
        assert eq.hs_term(b, b, 9) == 0.0

    def test_scalar_case(self):
        b1 = 2.0
        b2 = 1.0
        assert eq.hs_term(b1, b2, 3) == pytest.approx(3.0, rel=1e-14)

    def test_against_dense_linear_algebra_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            b1 = random_spd(rng, 4)
            b2 = random_spd(rng, 4)
            ours = eq.hs_term(b1, b2, 7)
            ref = brute_force_term(b1, b2, 7)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_fourier_reduction(self):
        b1 = [2.0, 1.0, 0.5]
        b2 = [1.0, 1.0, 1.0]
        # hl * sum_k mult_k (ratio_k - 1)^2 = 5 * (1 + 0 + 2 * 0.25)
        assert eq.hs_term(b1, b2, 5) == pytest.approx(5 * 1.5, rel=1e-14)

    def test_singular_reference_rejected(self):
        b1 = np.eye(2)
        b2 = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="strictly positive"):
            eq.hs_term(b1, b2, 1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(1, 9))
            b1 = random_spd(rng, p)
            b2 = random_spd(rng, p)
            c = 10.0 ** rng.uniform(-3, 3)
            t0 = eq.hs_term(b1, b2, 11)
            t1 = eq.hs_term(c * b1, c * b2, 11)
            assert abs(t1 - t0) <= 1e-12 * max(1.0, abs(t0))

    def test_scalar_reduction_matches_ratio_form(self):
        # p = 1 matrices reproduce h(l) (b1/b2 - 1)^2 exactly
        rng = np.random.default_rng(3)
        for _ in range(100):
            v1, v2 = rng.uniform(0.1, 3.0, 2)
            hl = int(rng.integers(1, 50))
            ours = eq.hs_term([[v1]], [[v2]], hl)
            assert ours == pytest.approx(hl * (v1 / v2 - 1.0) ** 2, rel=1e-11)


class TestFunctionalSeries:
    def test_self_comparison_zero_terms(self):
        seq = md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=(1, 1), rho12=0.4,
                                    alpha=(0.5, 0.5, 0.3)), 64)
        series = eq.functional_series(seq, seq)
        assert np.all(series == 0.0)
        assert np.all(np.cumsum(series) == 0.0)

    def test_terms_nonnegative_partial_sums_monotone(self):
        s1 = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 64, 32))
        s2 = md.build_sequence(md.LegendreMaternParams(1.0, 1.5, 1.0, 64, 32))
        series = eq.functional_series(s1, s2)
        assert np.all(series >= 0.0)
        assert np.all(np.diff(np.cumsum(series)) >= 0.0)

    def test_incompatible_sequences_rejected(self):
        s1 = scalar_seq(2, [1.0, 0.5])
        s2 = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 4, 4))
        with pytest.raises(ValueError, match="variant"):
            eq.functional_series(s1, s2)
        s3 = scalar_seq(3, [1.0, 0.5])
        with pytest.raises(ValueError, match="dimensions"):
            eq.functional_series(s1, s3)

    def test_fourier_route_matches_per_degree_terms(self):
        p1 = md.LegendreMaternParams(1.0, 1.0, 1.0, 32, 16)
        p2 = md.LegendreMaternParams(1.2, 2.0, 0.8, 32, 16)
        s1, s2 = md.build_sequence(p1), md.build_sequence(p2)
        series = eq.functional_series(s1, s2)
        for l in (0, 3, 17, 32):
            direct = eq.hs_term(s1.coeffs[l], s2.coeffs[l], h_dim(2, l))
            assert series[l] == pytest.approx(direct, rel=1e-12)


def _sweep_stacks(rng, kind, width, n):
    """Two strictly positive stacks of n degrees: scalar, fourier with width
    entries, or matrix of side width."""
    if kind == "scalar":
        return rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    if kind == "fourier":
        return rng.uniform(0.5, 1.5, (n, width)), rng.uniform(0.5, 1.5, (n, width))
    return tuple(random_spd(rng, width)[None] * rng.uniform(0.5, 1.5, (n, 1, 1))
                 for _ in range(2))


class TestDegreeBlocks:
    """_conjugated_distances reads its stacks in degree blocks; the blocks
    must not move a bit of the distances, which functional_series multiplies
    by h(l)."""

    @staticmethod
    def lengths(step):
        # every length mod 8 past two blocks, which leaves a last block of
        # 0-7 rows to merge; tails of 1-3 rows past eight blocks (at 2049
        # rows of 513 entries a gemv at two OpenBLAS threads splits its rows
        # where the blocks do not); a tail of half a block, which stays; a
        # lone block
        return ([2 * step + r for r in range(8)] + [8 * step + r for r in (1, 2, 3)]
                + [step + step // 2, step // 2 + 3])

    @pytest.mark.parametrize("blas_threads", [1, 2])
    @pytest.mark.parametrize("kind, width", [
        ("scalar", 1), ("fourier", 1), ("fourier", 2), ("fourier", 3),
        ("fourier", 17), ("fourier", 513), ("matrix", 2), ("matrix", 3),
        ("matrix", 5)])
    def test_blocks_keep_the_bits(self, monkeypatch, blas_threads, kind, width):
        api = _blas._thread_api()
        if api is None and blas_threads > 1:
            pytest.skip("no OpenBLAS thread API")
        rng = np.random.default_rng(width)
        row = width * width if kind == "matrix" else width
        if kind == "matrix":
            # blocks of 64 degrees: the dense branch works degree by degree,
            # and a full block (32768 2 x 2 degrees) takes over a second
            monkeypatch.setattr(eq, "_BLOCK_ELEMS", 64 * row)
        step = max(8, eq._BLOCK_ELEMS // row // 8 * 8)
        before = api[0]() if api else None
        try:
            if api:
                api[1](blas_threads)
            for n in self.lengths(step):
                v1, v2 = _sweep_stacks(rng, kind, width, n)
                blocks = eq._degree_blocks(n, row)
                assert all(b.start % 8 == 0 for b in blocks)
                assert min(b.stop - b.start for b in blocks) >= min(n, step // 2)
                blocked = eq._conjugated_distances(v1, v2)
                with monkeypatch.context() as m:
                    m.setattr(eq, "_BLOCK_ELEMS", (n + 8) * row)
                    assert len(eq._degree_blocks(n, row)) == 1
                    whole = eq._conjugated_distances(v1, v2)
                assert np.array_equal(blocked, whole), (n, len(blocks))
        finally:
            if api:
                api[1](before)

    def test_series_holds_one_block(self):
        # above its two input stacks, functional_series needs the largest
        # degree block and the reference's positivity mask, not a stack
        s1 = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 1024, 256))
        s2 = md.build_sequence(md.LegendreMaternParams(1.0, 2.0, 1.0, 1024, 256))
        block = 8 * 257 * max(b.stop - b.start for b in eq._degree_blocks(1025, 257))
        mask = 1025 * 257
        assert block < s1.coeffs.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            terms = eq.functional_series(s1, s2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert terms.shape == (1025,)
        assert peak <= 1.05 * (block + mask)


class TestScalarMarginalization:
    def test_coordinate_projection_matches_scalar_criterion(self):
        rng = np.random.default_rng(5)
        mats1 = [random_spd(rng, 3) for _ in range(9)]
        mats2 = [random_spd(rng, 3) for _ in range(9)]
        s1 = sb.SchoenbergSequence(2, mats1)
        s2 = sb.SchoenbergSequence(2, mats2)
        series = eq.scalar_marginal_series(s1, s2, [1.0, 0.0, 0.0])
        for l in range(9):
            expect = h_dim(2, l) * (mats1[l][0, 0] / mats2[l][0, 0] - 1.0) ** 2
            assert series[l] == pytest.approx(expect, rel=1e-12)

    def test_identical_sequences_zero(self):
        seq = md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=(1, 1), rho12=0.4,
                                    alpha=(0.5, 0.5, 0.3)), 32)
        series = eq.scalar_marginal_series(seq, seq, [0.3, -1.1])
        assert np.all(series == 0.0)

    def test_projected_sequence_exposed(self):
        seq = md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=(1.0, 2.0), rho12=0.4,
                                    alpha=(0.5, 0.6, 0.5)), 8)
        proj = eq.project_sequence(seq, [1.0, 1.0])
        assert proj.variant == sb.SCALAR
        for l in range(9):
            b = seq.coeffs[l]
            assert float(proj.coeffs[l]) == pytest.approx(
                b[0, 0] + 2 * b[0, 1] + b[1, 1], rel=1e-13)

    def test_degenerate_denominator_rejected(self):
        s1 = scalar_seq(2, [1.0, 1.0])
        s2 = scalar_seq(2, [1.0, 0.0])
        with pytest.raises(ValueError, match=r"strictly positive \(degree 1: "):
            eq.scalar_marginal_series(s1, s2, [1.0])

    def test_dust_negative_form_projects_to_zero(self):
        # PSD within tolerance, with eigenvalue -1e-13 along u = (1, -1)
        b = np.array([[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]])
        dust = sb.SchoenbergSequence(2, [b])
        ref = sb.SchoenbergSequence(2, [np.eye(2)])
        u = [1.0, -1.0]
        assert dust.quadratic_forms(u)[0] < 0.0
        assert eq.project_sequence(dust, u).coeffs[0] == 0.0
        assert eq.scalar_marginal_series(dust, ref, u)[0] == 1.0
        with pytest.raises(ValueError, match=r"strictly positive \(degree 0: "):
            eq.scalar_marginal_series(ref, dust, u)

    def test_zero_direction_rejected(self):
        seq = scalar_seq(2, [1.0])
        with pytest.raises(ValueError, match="nonzero"):
            eq.project_sequence(seq, [0.0])

    def test_per_term_domination_random(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p = int(rng.integers(1, 9))
            b1 = random_spd(rng, p)
            b2 = random_spd(rng, p)
            u = rng.standard_normal(p)
            hl = int(rng.integers(1, 30))
            s1 = sb.SchoenbergSequence(2, [b1])
            s2 = sb.SchoenbergSequence(2, [b2])
            scal = eq.scalar_marginal_series(s1, s2, u)[0] * hl
            func = eq.hs_term(b1, b2, 1) * hl
            assert scal <= func * (1.0 + 1e-10) + 1e-18


class TestMarginalBoundCheck:
    """``|<(A - B) u, u>| / <B u, u>  <=  ||B^{-1/2} A B^{-1/2} - I||_HS`` on
    one degree: the root of the scalar term along u against that of
    ``hs_term(A, B, 1)``."""

    @staticmethod
    def sides(a, b, u):
        seq_a, seq_b = (sb.SchoenbergSequence(2, [m]) for m in (a, b))
        return (math.sqrt(eq.scalar_marginal_series(seq_a, seq_b, u)[0]),
                math.sqrt(eq.hs_term(a, b, 1)))

    def test_equal_operators(self):
        rng = np.random.default_rng(2)
        b = random_spd(rng, 5)
        lhs, rhs = self.sides(b, b, rng.standard_normal(5))
        assert lhs == 0.0 and rhs == 0.0

    def test_doubled_operator(self):
        rng = np.random.default_rng(4)
        for p in (2, 5, 8):
            b = random_spd(rng, p)
            lhs, rhs = self.sides(2.0 * b, b, rng.standard_normal(p))
            assert lhs == pytest.approx(1.0, rel=1e-11)
            assert rhs == pytest.approx(math.sqrt(p), rel=1e-11)


class TestScalarMarginalDigests:
    """sha256 of the ``scalar_marginal_series`` terms on the model pairs of
    acceptance criterion 6, recorded with numpy 2.4.6 when the scalar terms
    had a pipeline of their own; routing them through
    :func:`functional_series` changes no bit."""

    @pytest.mark.parametrize("pa, pb, u, digest", [
        (((1.0, 1.1), 0.40, (0.9, 0.9, 0.88)), ((1.0, 1.1), 0.45, (0.9, 0.9, 0.89)),
         [1.0, 0.0], "4f2cfec1c5dc3827cdeb42906713b37cae91e009aa0e2d211c376ccb9969b3ea"),
        (((1.0, 1.1), 0.40, (0.9, 0.9, 0.88)), ((1.0, 1.1), 0.45, (0.9, 0.9, 0.89)),
         [0.3, -0.9], "dfcdc20bc28bb62eb3a8a9e5256b992a1edcbc8c143b9f93a0bb1fed46d19185"),
        (((1.0, 1.0), 0.40, (0.6, 0.5, 0.30)), ((1.2, 1.0), 0.40, (0.6, 0.5, 0.30)),
         [1.0, 0.0], "8b1c365203471d49a84baa852f980d95ac0c7af855fc2edc4a162a2834f17562"),
        (((1.0, 1.0), 0.40, (0.6, 0.5, 0.30)), ((1.2, 1.0), 0.40, (0.6, 0.5, 0.30)),
         [0.3, -0.9], "945b254c2697b113d20e88d3e6e8d3c4a033ebf145cf87dab765d04090977a31"),
    ])
    def test_multiquadratic(self, pa, pb, u, digest):
        seq_a, seq_b = (md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=sigma, rho12=rho, alpha=alpha), 512)
            for sigma, rho, alpha in (pa, pb))
        terms = eq.scalar_marginal_series(seq_a, seq_b, u)
        assert hashlib.sha256(terms.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("alpha, nu, digest", [
        (2.0, 1.0, "0a37b393945f639a72af72303e1e534db9c592a78dbe534cc4780e3ceff6cd55"),
        (1.0, 1.2, "c68e0369196e81b94e584cfbe6cfa5a733055d256ffba21c9301c1ab011980a1"),
    ])
    def test_legendre_matern(self, alpha, nu, digest):
        seq_a = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 512, 512))
        seq_b = md.build_sequence(md.LegendreMaternParams(1.0, alpha, nu, 512, 512))
        u = np.abs(np.random.default_rng(6).standard_normal(513)) + 1e-3
        terms = eq.scalar_marginal_series(seq_a, seq_b, u)
        assert hashlib.sha256(terms.tobytes()).hexdigest() == digest


class TestNumericClassifier:
    def test_all_zero_terms_equivalent(self):
        v = eq.classify_numeric(np.zeros(64))
        assert v["verdict"] == eq.EQUIVALENT and v["provenance"] == eq.NUMERIC

    def test_constant_terms_orthogonal(self):
        v = eq.classify_numeric(np.ones(64))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_harmonic_series_never_equivalent(self):
        terms = 1.0 / np.arange(1, 600)
        v = eq.classify_numeric(terms)
        assert v["verdict"] in (eq.ORTHOGONAL, eq.INCONCLUSIVE)

    def test_steep_decay_equivalent(self):
        l = np.arange(1, 600, dtype=float)
        terms = np.exp(-0.2 * l)
        v = eq.classify_numeric(terms)
        assert v["verdict"] == eq.EQUIVALENT

    def test_growing_terms_orthogonal(self):
        terms = np.arange(1.0, 65.0)
        assert eq.classify_numeric(terms)["verdict"] == eq.ORTHOGONAL

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValueError, match=">= 32"):
            eq.classify_numeric(np.zeros(8))


class TestClosedFormMultiquadratic:
    def p(self, sigma=(1.0, 1.0), rho12=0.4, a=(0.5, 0.5, 0.3), d=2):
        return md.MultiquadraticParams(d=d, sigma=sigma, rho12=rho12, alpha=a)

    def test_identical_equivalent(self):
        v = eq.classify_multiquadratic(self.p(), self.p())
        assert v["verdict"] == eq.EQUIVALENT and v["provenance"] == eq.CLOSED_FORM

    def test_differing_cross_rates_below_root_equivalent(self):
        v = eq.classify_multiquadratic(
            self.p(a=(0.5, 0.5, 0.30), rho12=0.2),
            self.p(a=(0.5, 0.5, 0.35), rho12=0.7))
        assert v["verdict"] == eq.EQUIVALENT

    def test_sigma_mismatch_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(), self.p(sigma=(1.1, 1.0)))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_marginal_rate_mismatch_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(), self.p(a=(0.55, 0.5, 0.3)))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_boundary_cross_rate_identical_equivalent(self):
        p = self.p(a=(0.5, 0.5, 0.5))
        assert eq.classify_multiquadratic(p, p)["verdict"] == eq.EQUIVALENT

    def test_boundary_cross_rate_rho_mismatch_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(a=(0.5, 0.5, 0.5), rho12=0.3),
                                       self.p(a=(0.5, 0.5, 0.5), rho12=0.4))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_boundary_vs_interior_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(a=(0.5, 0.5, 0.5)),
                                       self.p(a=(0.5, 0.5, 0.3)))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_invalid_parameters_rejected(self):
        bad = self.p(a=(0.6, 0.4, 0.5))
        with pytest.raises(ValueError, match="invalid"):
            eq.classify_multiquadratic(bad, self.p())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            eq.classify_multiquadratic(self.p(), self.p(d=3))


class TestClosedFormLegendreMatern:
    def test_alpha_free(self):
        v = eq.classify_legendre_matern(md.LegendreMaternParams(1.0, 1.0, 1.0),
                                        md.LegendreMaternParams(1.0, 2.0, 1.0))
        assert v["verdict"] == eq.EQUIVALENT

    def test_nu_mismatch(self):
        v = eq.classify_legendre_matern(md.LegendreMaternParams(1.0, 1.0, 1.0),
                                        md.LegendreMaternParams(1.0, 1.0, 1.5))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_sigma_mismatch(self):
        v = eq.classify_legendre_matern(md.LegendreMaternParams(1.0, 1.0, 1.0),
                                        md.LegendreMaternParams(1.1, 1.0, 1.0))
        assert v["verdict"] == eq.ORTHOGONAL

    def test_identical(self):
        p = md.LegendreMaternParams(2.0, 0.5, 0.8)
        assert eq.classify_legendre_matern(p, p)["verdict"] == eq.EQUIVALENT


class TestVerdictSymmetry:
    def test_multiquadratic_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            ps = []
            for _ in range(2):
                a11, a22 = rng.uniform(0.2, 0.8, 2)
                a12 = rng.uniform(0.05, math.sqrt(a11 * a22) * 0.999)
                bound = ((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** 0.5
                ps.append(md.MultiquadraticParams(
                    d=2, sigma=(float(rng.uniform(0.5, 2)), 1.0),
                    rho12=float(rng.uniform(0.05, min(bound, 0.999) * 0.9)),
                    alpha=(a11, a22, a12)))
            v12 = eq.classify_multiquadratic(ps[0], ps[1])["verdict"]
            v21 = eq.classify_multiquadratic(ps[1], ps[0])["verdict"]
            assert v12 == v21

    def test_legendre_matern_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            p1 = md.LegendreMaternParams(*rng.uniform(0.5, 2.0, 3))
            p2 = md.LegendreMaternParams(*rng.uniform(0.5, 2.0, 3))
            assert eq.classify_legendre_matern(p1, p2)["verdict"] == \
                eq.classify_legendre_matern(p2, p1)["verdict"]


class TestClosedFormNumericAgreement:
    """Numeric verdicts agree with closed form or abstain; never contradict."""

    def _check(self, closed, numeric):
        if numeric["verdict"] != eq.INCONCLUSIVE:
            assert numeric["verdict"] == closed["verdict"]

    def test_legendre_matern_sweep(self):
        rng = np.random.default_rng(101)
        for i in range(20):
            sigma, alpha, nu = rng.uniform(0.6, 1.8, 3)
            if i % 2 == 0:  # equivalence class: change alpha only
                q = md.LegendreMaternParams(sigma, alpha * rng.uniform(1.1, 2.0), nu)
            else:           # orthogonal class: perturb sigma or nu
                if rng.random() < 0.5:
                    q = md.LegendreMaternParams(sigma * 1.2, alpha, nu)
                else:
                    q = md.LegendreMaternParams(sigma, alpha, nu + 0.3)
            p = md.LegendreMaternParams(sigma, alpha, nu)
            closed = eq.classify_legendre_matern(p, q)
            series = eq.functional_series(
                *(md.build_sequence(replace(r, k_max=512), 512) for r in (p, q)))
            self._check(closed, eq.classify_numeric(series))

    def test_multiquadratic_sweep(self):
        rng = np.random.default_rng(77)
        for i in range(20):
            a11, a22 = rng.uniform(0.3, 0.7, 2)
            root = math.sqrt(a11 * a22)
            a12 = rng.uniform(0.05, root * 0.9)
            bound = ((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** 0.5
            rho = float(rng.uniform(0.05, min(bound, 0.999) * 0.9))
            sigma = (float(rng.uniform(0.5, 1.5)), 1.0)
            p = md.MultiquadraticParams(d=2, sigma=sigma, rho12=rho,
                                        alpha=(a11, a22, a12))
            if i % 2 == 0:  # change cross rate below the root: equivalent
                a12b = rng.uniform(0.05, root * 0.9)
                q = md.MultiquadraticParams(d=2, sigma=sigma, rho12=rho,
                                            alpha=(a11, a22, a12b))
            else:           # change a marginal scale: orthogonal
                q = md.MultiquadraticParams(d=2, sigma=(sigma[0] * 1.15, 1.0),
                                            rho12=rho, alpha=(a11, a22, a12))
            closed = eq.classify_multiquadratic(p, q)
            series = eq.functional_series(md.build_sequence(p, 512),
                                          md.build_sequence(q, 512))
            self._check(closed, eq.classify_numeric(series))


class TestReportOutput:
    def test_json_schema_and_csv_columns(self, tmp_path):
        s1 = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 64, 16))
        s2 = md.build_sequence(md.LegendreMaternParams(1.0, 2.0, 1.0, 64, 16))
        series = eq.functional_series(s1, s2)
        verdicts = [eq.classify_legendre_matern(
            md.LegendreMaternParams(1.0, 1.0, 1.0),
            md.LegendreMaternParams(1.0, 2.0, 1.0)),
            eq.classify_numeric(series)]
        obj = eq.report_to_dict(series, verdicts)
        validate_schema("equivalence_report.schema.json", obj)

        path = tmp_path / "series.csv"
        eq.write_series_csv(path, series)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["l", "term", "partial_sum"]
        assert int(rows[1][0]) == 0 and len(rows) == 66

    def test_nonfinite_fit_serializes_null(self):
        assert math.isnan(eq.fit_decay_exponent(np.zeros(40)))
        assert eq.report_to_dict(np.zeros(40), [])["decay_fit"] is None


@pytest.mark.parametrize("b1, b2, hl, message", [
    (np.eye(2), np.eye(3), 1, "coefficients must share variant and size"),
    (np.eye(2), np.eye(2), 0, "eigenspace dimension must be positive, got 0"),
], ids=["shapes_differ", "hl_zero"])
def test_hs_term_checks(b1, b2, hl, message):
    with pytest.raises(ValueError) as info:
        eq.hs_term(b1, b2, hl)
    assert str(info.value) == message
