import csv
import decimal
import hashlib
import io
import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from scipy.linalg import sqrtm

from spherefield import equivalence as eq
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield.harmonics import h_dim
from _reference import (
    DECIMAL,
    decimal_diagonal_distances,
    decimal_pair_terms,
    multiquadratic_decimal_entries,
    openblas_threads,
    validate_schema,
)

# the default multiquadratic pair, and a d = 10 pair whose terms decay slowly
MQ_A = md.MultiquadraticParams(d=2, sigma=(1, 1), rho12=0.4, alpha=(0.5, 0.5, 0.45))
MQ_B = replace(MQ_A, alpha=(0.5, 0.5, 0.40))
D10_A = md.MultiquadraticParams(d=10, sigma=(1, 1.3), rho12=1e-7,
                                alpha=(0.8194, 0.8669, 0.8361))
D10_B = replace(D10_A, alpha=(0.8194, 0.8669, 0.2927))


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

    @pytest.mark.parametrize("pair, l_max", [
        ((MQ_A, MQ_B), 300), ((MQ_A, MQ_B), 800), ((D10_A, D10_B), 2048),
    ], ids=["mq-300", "mq-800", "d10-2048"])
    def test_every_term_is_the_decimal_reference(self, pair, l_max):
        # the terms of the model pair, against 60-digit terms from the exact
        # decimal parameters: none is 0 (every pair of degrees differs), and
        # each is within 1e-10 relative (at most 6.2e-14, 2.9e-13 and
        # 1.3e-13 seen, mostly the rounding of the stored entries).  An
        # absolute distance floor zeroed the terms from degree 295 on (mq)
        # and 2034 on (d10).  About 0.1 s for the three.
        p1, p2 = pair
        ref = decimal_pair_terms(p1.d, multiquadratic_decimal_entries(p1, l_max),
                                 multiquadratic_decimal_entries(p2, l_max))
        terms = eq.functional_series(md.build_sequence(p1, l_max),
                                     md.build_sequence(p2, l_max))
        assert np.all(terms > 0.0)
        with decimal.localcontext(DECIMAL):
            rel = max(abs(Decimal(t) - r) / r for t, r in zip(terms.tolist(), ref))
        assert rel <= Decimal("1e-10")

    @pytest.mark.parametrize("k_max, l_max", [(1, 200), (16, 100), (513, 16),
                                              (10001, 2)])
    def test_diagonal_distances_are_the_decimal_reference(self, k_max, l_max):
        # ten drawn Legendre-Matern pairs per K, sigma and nu equal or drawn:
        # each distance is within 8 eps sum_k m_k |q_k - 1| (q_k + |q_k - 1|)
        # of its 60-digit value from the stored spectra, q = g1 / g2, the
        # rounding of the quotient, the difference and the square carried
        # through the sum.  About 1.3 s for the four.
        rng = np.random.default_rng(k_max)
        mult = sb.fold_multiplicities(k_max + 1)
        for i in range(10):
            sigma, alpha = 10.0 ** rng.uniform(-2.0, 2.0, 2)
            p1 = md.LegendreMaternParams(sigma, alpha, rng.uniform(0.2, 4.0),
                                         l_max, k_max)
            p2 = replace(p1, alpha=10.0 ** rng.uniform(-2.0, 2.0))
            if i % 2:
                p2 = replace(p2, sigma=sigma * rng.uniform(0.5, 2.0))
            if i % 4 > 1:
                p2 = replace(p2, nu=rng.uniform(0.2, 4.0))
            g1, g2 = md.legendre_matern_gamma_grid(p1), md.legendre_matern_gamma_grid(p2)
            dist = eq._conjugated_distances(g1, g2)
            q = g1 / g2
            bound = 8.0 * np.finfo(float).eps * np.sum(
                mult * np.abs(q - 1.0) * (q + np.abs(q - 1.0)), axis=1)
            ref = decimal_diagonal_distances(g1, g2, mult)
            with decimal.localcontext(DECIMAL):
                err = [abs(Decimal(x) - r) for x, r in zip(dist.tolist(), ref)]
            assert all(e <= Decimal(b) for e, b in zip(err, bound.tolist())), (p1, p2)


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
        # a last block of 0-7 rows past two blocks, one row among them;
        # tails of 1-3 rows past eight blocks; a tail of half a block; a
        # lone block
        return ([2 * step + r for r in range(8)] + [8 * step + r for r in (1, 2, 3)]
                + [step + step // 2, step // 2 + 3])

    @pytest.mark.parametrize("blas_threads", [1, 2])
    @pytest.mark.parametrize("kind, width", [
        ("scalar", 1), ("fourier", 1), ("fourier", 2), ("fourier", 3),
        ("fourier", 17), ("fourier", 513), ("fourier", 10001), ("matrix", 2),
        ("matrix", 3), ("matrix", 5)])
    def test_blocks_keep_the_bits(self, monkeypatch, blas_threads, kind, width):
        rng = np.random.default_rng(width)
        row = width * width if kind == "matrix" else width
        if kind == "matrix":
            # blocks of 64 degrees: the dense branch works degree by degree,
            # and a full block (32768 2 x 2 degrees) takes over a second
            monkeypatch.setattr(eq, "_BLOCK_ELEMS", 64 * row)
        step = max(8, eq._BLOCK_ELEMS // row)
        with openblas_threads(blas_threads):
            for n in self.lengths(step):
                v1, v2 = _sweep_stacks(rng, kind, width, n)
                blocks = eq._degree_blocks(n, row)
                blocked = eq._conjugated_distances(v1, v2)
                with monkeypatch.context() as m:
                    m.setattr(eq, "_BLOCK_ELEMS", (n + 8) * row)
                    assert len(eq._degree_blocks(n, row)) == 1
                    whole = eq._conjugated_distances(v1, v2)
                assert np.array_equal(blocked, whole), (n, len(blocks))

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


class TestLegendreMaternSeries:
    """legendre_matern_series streams the two spectra through the blocks of
    _conjugated_distances; its terms and errors are those of the series of
    the two built sequences."""

    @staticmethod
    def sequence_route(p1, p2):
        return eq.functional_series(md.build_sequence(p1), md.build_sequence(p2))

    @pytest.mark.parametrize("blas_threads", [1, 2])
    @pytest.mark.parametrize("k_max", [1, 16, 512])
    def test_streamed_terms_have_the_bits_of_the_series(self, blas_threads, k_max):
        rng = np.random.default_rng(k_max)
        step = max(8, eq._BLOCK_ELEMS // (k_max + 1))
        # a lone block, a block on either side of one step, a short last
        # block, and a last block of half a block
        lengths = [step // 2 + 3, step - 1, step + 1, 2 * step + 3, step + step // 2]
        with openblas_threads(blas_threads):
            for n in lengths:
                sigma, alpha = 10.0 ** rng.uniform(-2.0, 2.0, 2)
                p1 = md.LegendreMaternParams(sigma, alpha, rng.uniform(0.2, 4.0),
                                             n - 1, k_max)
                p2 = replace(p1, sigma=sigma * rng.uniform(0.5, 2.0),
                             alpha=10.0 ** rng.uniform(-2.0, 2.0),
                             nu=rng.uniform(0.2, 4.0))
                streamed = eq.legendre_matern_series(p1, p2)
                whole = self.sequence_route(p1, p2)
                assert streamed.tobytes() == whole.tobytes(), (n, p1, p2)

    def test_shorter_model_sets_the_length(self):
        p1 = md.LegendreMaternParams(1.0, 1.0, 1.0, 40, 8)
        p2 = replace(p1, alpha=2.0, l_max=30)
        terms = eq.legendre_matern_series(p1, p2)
        assert terms.shape == (31,)
        assert terms.tobytes() == self.sequence_route(p1, p2).tobytes()

    def test_k_max_must_agree(self):
        p1 = md.LegendreMaternParams(1.0, 1.0, 1.0, 40, 8)
        with pytest.raises(ValueError, match="K_max"):
            eq.legendre_matern_series(p1, replace(p1, k_max=9))

    # (nu, alpha) of the two models: nu = 100 is 0 from degree 0 at K = 200,
    # nu = 54 from degree 373 (the second block at K = 512) and nu = 53
    # from 496 (the third), each an error as the reference only; alpha = .001
    # at nu = 108 is inf at degree 0, an error on either side
    @pytest.mark.parametrize("m1, m2, k_max", [
        ((1.0, 1.0), (100.0, 1.0), 200), ((100.0, 1.0), (1.0, 2.0), 200),
        ((108.0, 0.001), (1.0, 2.0), 200), ((1.0, 2.0), (108.0, 0.001), 200),
        ((100.0, 1.0), (108.0, 0.001), 200), ((108.0, 0.001), (100.0, 1.0), 200),
        ((1.0, 1.0), (54.0, 1.0), 512), ((54.0, 1.0), (53.0, 1.0), 512),
        ((53.0, 1.0), (54.0, 1.0), 512), ((108.0, 0.001), (54.0, 1.0), 512)])
    def test_first_error_is_the_series_first_error(self, m1, m2, k_max):
        p1, p2 = (md.LegendreMaternParams(1.0, alpha, nu, 1000, k_max)
                  for nu, alpha in (m1, m2))

        def outcome(series):
            try:
                return series(p1, p2).tobytes()
            except ValueError as exc:
                return str(exc)

        assert outcome(eq.legendre_matern_series) == outcome(self.sequence_route)

    def test_streamed_series_holds_one_block_of_each(self):
        # the two blocks of a pair, their quotient and the boolean masks of
        # their checks: 3.5 of the largest block (313 of 2049 degrees)
        p1 = md.LegendreMaternParams(1.0, 1.0, 1.0, 2048, 512)
        p2 = replace(p1, alpha=2.0)
        rows = max(b.stop - b.start for b in eq._degree_blocks(2049, 513))
        block = 8 * 513 * rows
        tracemalloc.start()
        try:
            terms = eq.legendre_matern_series(p1, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms.shape == (2049,)
        assert peak <= 3.5 * block


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
    acceptance criterion 6, recorded with numpy 2.4.6 once the quadratic
    forms and the diagonal distances became numpy row reductions (they were
    BLAS dots and a gemv; the moved terms agree with a 60-digit reference
    as well as the old ones did)."""

    @pytest.mark.parametrize("pa, pb, u, digest", [
        (((1.0, 1.1), 0.40, (0.9, 0.9, 0.88)), ((1.0, 1.1), 0.45, (0.9, 0.9, 0.89)),
         [1.0, 0.0], "4f2cfec1c5dc3827cdeb42906713b37cae91e009aa0e2d211c376ccb9969b3ea"),
        (((1.0, 1.1), 0.40, (0.9, 0.9, 0.88)), ((1.0, 1.1), 0.45, (0.9, 0.9, 0.89)),
         [0.3, -0.9], "2f2993c857d354989958e02f20e61e69b72652ef25faad843d335e3f0c59c81b"),
        (((1.0, 1.0), 0.40, (0.6, 0.5, 0.30)), ((1.2, 1.0), 0.40, (0.6, 0.5, 0.30)),
         [1.0, 0.0], "8b1c365203471d49a84baa852f980d95ac0c7af855fc2edc4a162a2834f17562"),
        (((1.0, 1.0), 0.40, (0.6, 0.5, 0.30)), ((1.2, 1.0), 0.40, (0.6, 0.5, 0.30)),
         [0.3, -0.9], "2e8069a096868236933253171e853b537ffd7213ec201f6c5868ceb7c75cb35f"),
    ])
    def test_multiquadratic(self, pa, pb, u, digest):
        seq_a, seq_b = (md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=sigma, rho12=rho, alpha=alpha), 512)
            for sigma, rho, alpha in (pa, pb))
        terms = eq.scalar_marginal_series(seq_a, seq_b, u)
        assert hashlib.sha256(terms.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("alpha, nu, digest", [
        (2.0, 1.0, "588809fd84ad611e21b26ca9bf6e3227c6a3d066886733ee18c3bf9f4cfba7ee"),
        (1.0, 1.2, "1013b9564e843bd7a9521aaaed5f9723f85249d0f9137be097c49d07bd995525"),
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

    @pytest.mark.parametrize("usable, finite", [(7, False), (8, True)])
    def test_fit_needs_eight_usable_window_points(self, usable, finite):
        # L = 63, window [31, 63]: every other window term is positive, the
        # rest 0 or not finite, which the fit skips
        terms = np.zeros(64)
        terms[40:] = math.inf
        degrees = np.arange(31, 31 + 2 * usable, 2)
        terms[degrees] = degrees ** -3.0
        assert math.isfinite(eq.fit_decay_exponent(terms)) == finite

    @pytest.mark.parametrize("L", [63, 64])
    def test_window_is_upper_half_of_the_degrees(self, L):
        terms = np.arange(1, L + 2, dtype=float) ** -3.0
        assert eq.report_to_dict(terms, [])["window"] == [L // 2, L]
        assert f"window=[{L // 2},{L}]" in eq.classify_numeric(terms)["diagnostics"]

    @pytest.mark.parametrize("L", [63, 64])
    def test_fit_starts_at_the_window(self, L):
        # a spike at the window's first degree moves the fit; one a degree
        # below it does not
        terms = np.arange(1, L + 2, dtype=float) ** -3.0
        fit = eq.fit_decay_exponent(terms)
        spiked = []
        for degree in (L // 2, L // 2 - 1):
            t = terms.copy()
            t[degree] *= 100.0
            spiked.append(eq.fit_decay_exponent(t))
        assert spiked[0] != fit and spiked[1] == fit


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

    def test_csv_bytes_are_the_csv_writers(self, tmp_path):
        # the bytes that csv.writer wrote before the series CSV was written
        # by hand, on extreme floats: partial sums -0.0, 0.0, 5e-324, the
        # largest float, inf (the sum overflows) and nan
        terms = np.array([-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                          1.7976931348623157e308, math.inf, math.nan])
        path = tmp_path / "series.csv"
        eq.write_series_csv(path, terms)
        with np.errstate(over="ignore"):
            sums = np.cumsum(terms)
        expect = io.StringIO(newline="")
        writer = csv.writer(expect)
        writer.writerow(["l", "term", "partial_sum"])
        for l, (t, s) in enumerate(zip(terms, sums)):
            writer.writerow([l, repr(float(t)), repr(float(s))])
        assert path.read_bytes() == expect.getvalue().encode()
        assert b"6,nan,nan\r\n" in path.read_bytes()

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
