import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import sqrtm

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
    return sb.SchoenbergSequence(d, sb.SCALAR, values)


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
        assert np.all(series.terms == 0.0)
        assert np.all(series.partial_sums == 0.0)

    def test_terms_nonnegative_partial_sums_monotone(self):
        s1 = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 64, 32))
        s2 = md.build_sequence(md.LegendreMaternParams(1.0, 1.5, 1.0, 64, 32))
        series = eq.functional_series(s1, s2)
        assert np.all(series.terms >= 0.0)
        assert np.all(np.diff(series.partial_sums) >= 0.0)

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
            assert series.terms[l] == pytest.approx(direct, rel=1e-12)


class TestScalarMarginalization:
    def test_coordinate_projection_matches_scalar_criterion(self):
        rng = np.random.default_rng(5)
        mats1 = [random_spd(rng, 3) for _ in range(9)]
        mats2 = [random_spd(rng, 3) for _ in range(9)]
        s1 = sb.SchoenbergSequence(2, sb.MATRIX, mats1)
        s2 = sb.SchoenbergSequence(2, sb.MATRIX, mats2)
        series = eq.scalar_marginal_series(s1, s2, [1.0, 0.0, 0.0])
        for l in range(9):
            expect = h_dim(2, l) * (mats1[l][0, 0] / mats2[l][0, 0] - 1.0) ** 2
            assert series.terms[l] == pytest.approx(expect, rel=1e-12)

    def test_identical_sequences_zero(self):
        seq = md.build_sequence(
            md.MultiquadraticParams(d=2, sigma=(1, 1), rho12=0.4,
                                    alpha=(0.5, 0.5, 0.3)), 32)
        series = eq.scalar_marginal_series(seq, seq, [0.3, -1.1])
        assert np.all(series.terms == 0.0)

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
            s1 = sb.SchoenbergSequence(2, sb.MATRIX, [b1])
            s2 = sb.SchoenbergSequence(2, sb.MATRIX, [b2])
            scal = eq.scalar_marginal_series(s1, s2, u).terms[0] * hl
            func = eq.hs_term(b1, b2, 1) * hl
            assert scal <= func * (1.0 + 1e-10) + 1e-18


class TestMarginalBoundCheck:
    def test_equal_operators(self):
        rng = np.random.default_rng(2)
        b = random_spd(rng, 5)
        lhs, rhs = eq.marginal_bound_check(b, b, rng.standard_normal(5))
        assert lhs == 0.0 and rhs == 0.0

    def test_doubled_operator(self):
        rng = np.random.default_rng(4)
        for p in (2, 5, 8):
            b = random_spd(rng, p)
            lhs, rhs = eq.marginal_bound_check(b, 2.0 * b, rng.standard_normal(p))
            assert lhs == pytest.approx(1.0, rel=1e-11)
            assert rhs == pytest.approx(math.sqrt(p), rel=1e-11)

    def test_inequality_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = int(rng.integers(1, 9))
            b = random_spd(rng, p)
            a = random_spd(rng, p)
            u = rng.standard_normal(p)
            lhs, rhs = eq.marginal_bound_check(b, a, u)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-15


class TestNumericClassifier:
    def _series(self, terms, window=None):
        terms = np.asarray(terms, dtype=float)
        degrees = np.arange(terms.size)
        l_max = terms.size - 1
        window = window or (l_max // 2, l_max)
        return eq.EquivalenceTermSeries(
            degrees=degrees, terms=terms, partial_sums=np.cumsum(terms),
            decay_fit=eq.fit_decay_exponent(degrees, terms, window),
            window=window)

    def test_all_zero_terms_equivalent(self):
        v = eq.classify_numeric(self._series(np.zeros(64)))
        assert v.verdict == eq.EQUIVALENT and v.provenance == eq.NUMERIC

    def test_constant_terms_orthogonal(self):
        v = eq.classify_numeric(self._series(np.ones(64)))
        assert v.verdict == eq.ORTHOGONAL

    def test_harmonic_series_never_equivalent(self):
        terms = 1.0 / np.arange(1, 600)
        v = eq.classify_numeric(self._series(terms))
        assert v.verdict in (eq.ORTHOGONAL, eq.INCONCLUSIVE)

    def test_steep_decay_equivalent(self):
        l = np.arange(1, 600, dtype=float)
        terms = np.exp(-0.2 * l)
        v = eq.classify_numeric(self._series(terms))
        assert v.verdict == eq.EQUIVALENT

    def test_growing_terms_orthogonal(self):
        terms = np.arange(1.0, 65.0)
        assert eq.classify_numeric(self._series(terms)).verdict == eq.ORTHOGONAL

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValueError, match=">= 32"):
            eq.classify_numeric(self._series(np.zeros(8)))

    def test_closed_form_never_inconclusive(self):
        with pytest.raises(ValueError):
            eq.EquivalenceVerdict(eq.INCONCLUSIVE, eq.CLOSED_FORM)


class TestClosedFormMultiquadratic:
    def p(self, sigma=(1.0, 1.0), rho12=0.4, a=(0.5, 0.5, 0.3), d=2):
        return md.MultiquadraticParams(d=d, sigma=sigma, rho12=rho12, alpha=a)

    def test_identical_equivalent(self):
        v = eq.classify_multiquadratic(self.p(), self.p())
        assert v.verdict == eq.EQUIVALENT and v.provenance == eq.CLOSED_FORM

    def test_differing_cross_rates_below_root_equivalent(self):
        v = eq.classify_multiquadratic(
            self.p(a=(0.5, 0.5, 0.30), rho12=0.2),
            self.p(a=(0.5, 0.5, 0.35), rho12=0.7))
        assert v.verdict == eq.EQUIVALENT

    def test_sigma_mismatch_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(), self.p(sigma=(1.1, 1.0)))
        assert v.verdict == eq.ORTHOGONAL

    def test_marginal_rate_mismatch_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(), self.p(a=(0.55, 0.5, 0.3)))
        assert v.verdict == eq.ORTHOGONAL

    def test_boundary_cross_rate_identical_equivalent(self):
        p = self.p(a=(0.5, 0.5, 0.5))
        assert eq.classify_multiquadratic(p, p).verdict == eq.EQUIVALENT

    def test_boundary_cross_rate_rho_mismatch_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(a=(0.5, 0.5, 0.5), rho12=0.3),
                                       self.p(a=(0.5, 0.5, 0.5), rho12=0.4))
        assert v.verdict == eq.ORTHOGONAL

    def test_boundary_vs_interior_orthogonal(self):
        v = eq.classify_multiquadratic(self.p(a=(0.5, 0.5, 0.5)),
                                       self.p(a=(0.5, 0.5, 0.3)))
        assert v.verdict == eq.ORTHOGONAL

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
        assert v.verdict == eq.EQUIVALENT

    def test_nu_mismatch(self):
        v = eq.classify_legendre_matern(md.LegendreMaternParams(1.0, 1.0, 1.0),
                                        md.LegendreMaternParams(1.0, 1.0, 1.5))
        assert v.verdict == eq.ORTHOGONAL

    def test_sigma_mismatch(self):
        v = eq.classify_legendre_matern(md.LegendreMaternParams(1.0, 1.0, 1.0),
                                        md.LegendreMaternParams(1.1, 1.0, 1.0))
        assert v.verdict == eq.ORTHOGONAL

    def test_identical(self):
        p = md.LegendreMaternParams(2.0, 0.5, 0.8)
        assert eq.classify_legendre_matern(p, p).verdict == eq.EQUIVALENT


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
            v12 = eq.classify_multiquadratic(ps[0], ps[1]).verdict
            v21 = eq.classify_multiquadratic(ps[1], ps[0]).verdict
            assert v12 == v21

    def test_legendre_matern_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            p1 = md.LegendreMaternParams(*rng.uniform(0.5, 2.0, 3))
            p2 = md.LegendreMaternParams(*rng.uniform(0.5, 2.0, 3))
            assert eq.classify_legendre_matern(p1, p2).verdict == \
                eq.classify_legendre_matern(p2, p1).verdict


class TestClosedFormNumericAgreement:
    """Numeric verdicts agree with closed form or abstain; never contradict."""

    def _check(self, closed, numeric):
        if numeric.verdict != eq.INCONCLUSIVE:
            assert numeric.verdict == closed.verdict

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
        policy = eq.VerdictPolicy()
        verdicts = [eq.classify_legendre_matern(
            md.LegendreMaternParams(1.0, 1.0, 1.0),
            md.LegendreMaternParams(1.0, 2.0, 1.0)),
            eq.classify_numeric(series, policy)]
        obj = eq.report_to_dict(series, verdicts, policy)
        validate_schema("equivalence_report.schema.json", obj)

        path = tmp_path / "series.csv"
        eq.write_series_csv(path, series)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["l", "term", "partial_sum"]
        assert int(rows[1][0]) == 0 and len(rows) == 66

    def test_nonfinite_fit_serializes_null(self):
        series = eq.EquivalenceTermSeries(
            degrees=np.arange(40), terms=np.zeros(40),
            partial_sums=np.zeros(40), decay_fit=math.nan, window=(20, 39))
        assert series.to_dict()["decay_fit"] is None
