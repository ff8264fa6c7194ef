import math

import numpy as np
import pytest

from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield.harmonics import gegenbauer_at_one
from _reference import multiquadratic_coeff_entries, multiquadratic_coeff_logs


def mq(d=2, sigma=(1.0, 1.0), rho12=0.4, alpha=(0.5, 0.5, 0.45)):
    return md.MultiquadraticParams(d=d, sigma=sigma, rho12=rho12, alpha=alpha)


class TestMultiquadraticParams:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="rho12"):
            mq(rho12=1.0)
        with pytest.raises(ValueError, match="alpha"):
            mq(alpha=(0.5, 0.5, 1.2))
        with pytest.raises(ValueError, match="sigma"):
            mq(sigma=(0.0, 1.0))
        with pytest.raises(ValueError, match="dimension"):
            mq(d=0)

    @pytest.mark.parametrize("sigma, message", [
        ((math.nan, 1.0), "two positive scales"),
        ((1.0, math.nan), "two positive scales"),
        ((math.inf, 1.0), "1.34e154"),
        ((1.0, 1e200), "1.34e154"),
        ((1.35e154, 1.0), "1.34e154")])
    def test_non_finite_sigma_rejected(self, sigma, message):
        # NaN fails every comparison, so it must fail "s > 0" rather than
        # pass "s <= 0"; a scale whose square overflows makes b_0 infinite
        with pytest.raises(ValueError, match=message):
            mq(sigma=sigma)
        mq(sigma=(1.3e154, 1.0))   # sigma^2 about 1.7e308 is still finite

    def test_dict_roundtrip(self):
        p = mq(d=3, sigma=(1.0, 1.3), rho12=0.2, alpha=(0.3, 0.4, 0.3))
        assert md.params_from_dict(p.to_dict()) == p


class TestMultiquadraticValidity:
    def test_equal_alphas_bound_is_one(self):
        # equal alphas give rho bound 1, and alpha_12 sits exactly on
        # sqrt(a11 a22), so the configuration is valid with zero slack there
        margin = md.multiquadratic_validity(mq(alpha=(0.5, 0.5, 0.5), rho12=0.5))
        assert margin == pytest.approx(0.0, abs=1e-15)

    def test_cross_rate_violation(self):
        # alpha_12 = 0.5 > sqrt(0.6 * 0.4) ~ 0.4899
        with pytest.raises(ValueError, match="invalid multiquadratic parameters: alpha_12"):
            md.multiquadratic_validity(mq(alpha=(0.6, 0.4, 0.5)))

    def test_rho_bound_d3(self):
        # bound = ((0.7)(0.7)/(0.8)^2)^1 = 0.765625
        base = dict(d=3, sigma=(1.0, 1.0), alpha=(0.3, 0.3, 0.2))
        md.multiquadratic_validity(mq(rho12=0.76, **base))
        with pytest.raises(ValueError, match="invalid multiquadratic parameters: rho12"):
            md.multiquadratic_validity(mq(rho12=0.77, **base))


class TestMultiquadraticCoefficients:
    def test_degree_zero_formula(self):
        p = mq()
        e11, e22, e12 = multiquadratic_coeff_entries(p, [0])[:, 0]
        # binom(0, 0) = 1: b_0(i,j) = rho_ij sigma_i sigma_j (1 - alpha_ij)
        assert e11 == pytest.approx(0.5, rel=1e-14)
        assert e22 == pytest.approx(0.5, rel=1e-14)
        assert e12 == pytest.approx(0.4 * 0.55, rel=1e-14)

    def test_validity_implies_psd(self):
        rng = np.random.default_rng(99)
        n = np.arange(501)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            a11, a22 = rng.uniform(0.1, 0.9, 2)
            a12 = rng.uniform(0.05, math.sqrt(a11 * a22))
            bound = ((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** ((d - 1) / 2)
            rho = rng.uniform(0.05, 0.999) * min(bound, 0.999)
            p = mq(d=d, sigma=tuple(rng.uniform(0.5, 2.0, 2)), rho12=rho,
                   alpha=(a11, a22, a12))
            md.multiquadratic_validity(p)
            # det(b_n) > 0 iff log e11 + log e22 > 2 log e12; the log-space
            # entries stay finite long after the entries themselves underflow
            logs = multiquadratic_coeff_logs(p, n)
            assert np.all(np.isfinite(logs[0]))
            assert np.all(logs[0] + logs[1] > 2.0 * logs[2])

    def test_rho_violation_negative_det_at_zero(self):
        # the det-positivity threshold is attained at n = 0, so a 5% bound
        # violation must show up in det(b_0)
        a11, a22, a12, d = 0.5, 0.5, 0.45, 2
        bound = ((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** ((d - 1) / 2)
        p = md.MultiquadraticParams(d=d, sigma=(1.0, 1.0), rho12=min(bound * 1.05, 0.999),
                                    alpha=(a11, a22, a12))
        b0 = multiquadratic_coeff_entries(p, [0])[:, 0]
        assert b0[0] * b0[1] - b0[2] ** 2 < 0

    def test_det_threshold_monotone_in_degree(self):
        # (a11 a22 / a12^2)^{n/2} ((1-a11)(1-a22)/(1-a12)^2)^{(d-1)/2} is
        # non-decreasing in n when a12 <= sqrt(a11 a22)
        for d in (2, 3):
            a11, a22, a12 = 0.6, 0.4, 0.4
            n = np.arange(200, dtype=float)
            thresh = ((a11 * a22 / a12 ** 2) ** (n / 2)
                      * (((1 - a11) * (1 - a22) / (1 - a12) ** 2) ** ((d - 1) / 2)))
            assert np.all(np.diff(thresh) >= -1e-15)

    def test_log_space_stability_large_degree(self):
        p = mq(d=3, alpha=(0.9, 0.9, 0.85), rho12=0.3)
        vals = multiquadratic_coeff_entries(p, [5000])
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0)


class TestMultiquadraticClosedForm:
    def test_zero_angle(self):
        p = mq(sigma=(1.0, 2.0))
        cf = md.multiquadratic_kernel_closed_form(p, 0.0)
        expect = np.array([[1.0, 0.4 * 2.0], [0.4 * 2.0, 4.0]])
        assert np.allclose(cf, expect, rtol=1e-14)

    def test_antipodal_angle(self):
        p = mq()
        cf = md.multiquadratic_kernel_closed_form(p, math.pi)
        a = 0.5
        assert cf[0, 0] == pytest.approx((1 - a) ** 2 / (1 + a) ** 2, rel=1e-14)

    def test_d3_series_consistency(self):
        # generating-function oracle at lam = 1: the truncated coefficient
        # series must reproduce the closed form
        p = mq(d=3, sigma=(1.0, 1.2), rho12=0.4, alpha=(0.5, 0.6, 0.5))
        seq = md.build_sequence(p, 400)
        kernel = sb.IsotropicKernel(seq)
        for theta in np.arange(0.0, math.pi + 1e-9, math.pi / 8):
            cf = md.multiquadratic_kernel_closed_form(p, theta)
            val = kernel(math.cos(theta))
            assert np.max(np.abs(val - cf)) < 1e-8

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            md.multiquadratic_kernel_closed_form(mq(), -0.1)


class TestLegendreMaternGamma:
    def test_unit_parameters(self):
        p = md.LegendreMaternParams(1.0, 1.0, 0.5, 4, 4)
        assert md.legendre_matern_gamma_grid(p)[0, 0] == pytest.approx(1.0)

    def test_sigma_scaling(self):
        p = md.LegendreMaternParams(2.0, 1.0, 0.5, 4, 4)
        assert md.legendre_matern_gamma_grid(p)[0, 0] == pytest.approx(4.0)

    def test_formula_value(self):
        # gamma_{1,0} = sigma^2 / ((2l+1)(alpha + l^2)^{nu+1/2}) at l=1
        p = md.LegendreMaternParams(1.0, 1.0, 0.5, 4, 4)
        assert md.legendre_matern_gamma_grid(p)[1, 0] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_grid_matches_pointwise(self):
        p = md.LegendreMaternParams(1.3, 0.7, 0.9, 6, 5)
        grid = md.legendre_matern_gamma_grid(p)
        for l in range(7):
            for k in range(6):
                gamma = 1.3 ** 2 / ((2 * l + 1) * (0.7 + k * k + l * l) ** 1.4)
                assert grid[l, k] == pytest.approx(gamma, rel=1e-15)

    def test_monotone_decreasing(self):
        p = md.LegendreMaternParams(1.0, 1.0, 1.0, 50, 50)
        grid = md.legendre_matern_gamma_grid(p)
        assert np.all(np.diff(grid, axis=0) < 0)
        assert np.all(np.diff(grid, axis=1) < 0)
        # decreasing in nu wherever alpha + k^2 + l^2 > 1
        p2 = md.LegendreMaternParams(1.0, 1.0, 1.5, 50, 50)
        grid2 = md.legendre_matern_gamma_grid(p2)
        assert np.all(grid2[1:, 1:] < grid[1:, 1:])

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="nu"):
            md.LegendreMaternParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="truncations"):
            md.LegendreMaternParams(1.0, 1.0, 1.0, 0, 10)

    @pytest.mark.parametrize("alpha", [math.inf, 10 ** 400])
    def test_infinite_alpha_rejected(self, alpha):
        # alpha = inf made every gamma 0, a model outside the family whose
        # closed-form and numeric equivalence verdicts disagree
        block = {"model": "legendre_matern", "sigma": 1, "alpha": alpha, "nu": 1}
        with pytest.raises(ValueError, match="alpha must be a finite float64, "
                                             "got alpha = inf"):
            md.params_from_dict(block)

    def test_huge_finite_alpha_underflows_to_zero(self):
        # every gamma is below float64, and 0 is its correctly rounded value
        p = md.LegendreMaternParams(1.0, 1e300, 1.0, 5, 4)
        assert np.all(md.legendre_matern_gamma_grid(p) == 0.0)


class TestBuildSequence:
    def test_multiquadratic_composes_with_validation(self):
        seq = md.build_sequence(mq(), 150)
        report = sb.validate_sequence(seq)
        assert report["passed"]

    def test_invalid_parameters_rejected_by_name(self):
        p = mq(alpha=(0.6, 0.4, 0.5))
        with pytest.raises(ValueError, match="alpha_12"):
            md.build_sequence(p, 10)

    def test_stored_coefficients_are_normalized_published_formula(self):
        # stored b_n = published b_n / C_n^lam(1)
        p = mq(d=3, sigma=(1.0, 1.2), rho12=0.4, alpha=(0.5, 0.6, 0.5))
        seq = md.build_sequence(p, 12)
        lam = (p.d - 1) / 2
        for n in (0, 1, 5, 12):
            e11, e22, e12 = multiquadratic_coeff_entries(p, [n])[:, 0]
            published = np.array([[e11, e12], [e12, e22]])
            stored = seq.coeffs[n]
            assert np.allclose(stored * gegenbauer_at_one(lam, n), published,
                               rtol=1e-12)

    def test_legendre_matern_strictly_positive(self):
        seq = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 40, 40))
        assert np.all(seq.coeffs > 0)
        assert seq.d == 2 and seq.variant == sb.FOURIER_DIAGONAL

    def test_legendre_matern_weighted_trace_brute_force(self):
        # oracle: direct double summation of h(l) * mult_k * gamma_{l,k}
        # from the spectral formula at L = K = 2000; finite for nu > 1/2
        p = md.LegendreMaternParams(1.0, 1.0, 1.0, 2000, 2000)
        l = np.arange(2001, dtype=float)[:, None]
        k = np.arange(2001, dtype=float)[None, :]
        grid = 1.0 / ((2 * l + 1) * (1.0 + k ** 2 + l ** 2) ** 1.5)
        mult = np.full(2001, 2.0)
        mult[0] = 1.0
        h = 2.0 * np.arange(2001) + 1.0
        brute_h_weighted = float(h @ (grid @ mult))
        assert math.isfinite(brute_h_weighted)

        seq = md.build_sequence(p)
        h_weighted = float(np.dot(h, seq.coeffs @ sb.fold_multiplicities(seq.dim)))
        assert h_weighted == pytest.approx(brute_h_weighted, rel=1e-12)
        # module's reported weighted trace is omega_2 * sum_l trace(b_l)
        report = sb.validate_sequence(seq)
        assert report["weighted_partial_sums"][-1] == pytest.approx(
            4 * math.pi * float(np.sum(grid @ mult)), rel=1e-12)

    def test_legendre_matern_partial_sums_cauchy(self):
        p = md.LegendreMaternParams(1.0, 1.0, 1.0, 2000, 2000)
        report = sb.validate_sequence(md.build_sequence(p))
        sums = report["weighted_partial_sums"]
        assert (sums[-1] - sums[1000]) / sums[-1] < 1e-3

    def test_circle_family_degenerates(self):
        # on S^1 the binomial factor vanishes for n >= 1, so the family
        # collapses to the constant kernel; still PSD-valid but not
        # equivalence-eligible
        seq = md.build_sequence(mq(d=1), 10)
        assert float(seq.coeffs[0, 0, 0]) > 0.0
        assert np.all(seq.coeffs[1:] == 0.0)
        report = sb.validate_sequence(seq)
        assert report["psd_valid"] is True and not report["strictly_positive"]

    def test_unknown_params_type(self):
        with pytest.raises(TypeError):
            md.build_sequence(object())


class TestParamsFromDict:
    def test_multiquadratic_block(self):
        obj = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
               "rho12": 0.4, "alpha": [0.5, 0.5, 0.45]}
        p = md.params_from_dict(obj)
        assert isinstance(p, md.MultiquadraticParams) and p.alpha == (0.5, 0.5, 0.45)

    def test_legendre_matern_block(self):
        obj = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0}
        p = md.params_from_dict(obj)
        assert isinstance(p, md.LegendreMaternParams)
        assert p.l_max == md.DEFAULT_L_MAX and p.k_max == md.DEFAULT_K_MAX

    def test_missing_field_named(self):
        with pytest.raises(KeyError, match="nu"):
            md.params_from_dict({"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0})

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            md.params_from_dict({"model": "spectral_exponential"})


@pytest.mark.parametrize("d, alpha, message", [
    # the cross-correlation bound's base (0.9 * 0.9 / 0.1^2 = 81) raised to
    # (d - 1) / 2 overflows; alpha_12 fails first
    (10 ** 6, (0.1, 0.1, 0.9), "invalid multiquadratic parameters: alpha_12 = 0.9 "
     "exceeds sqrt(alpha_11 alpha_22) = 0.1"),
], ids=["bound_overflows"])
def test_validity_refusal(d, alpha, message):
    with pytest.raises(ValueError) as info:
        md.multiquadratic_validity(mq(d=d, alpha=alpha))
    assert str(info.value) == message
