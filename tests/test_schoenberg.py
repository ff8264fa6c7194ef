import importlib
import inspect
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import eval_legendre

import spherefield
from spherefield import equivalence as eq
from spherefield import models as md
from spherefield import schoenberg as sb
from _reference import multiquadratic_coeff_entries, validate_schema


def random_spd(rng, p, jitter=0.05):
    a = rng.standard_normal((p, p))
    return a @ a.T + jitter * np.eye(p)


def scalar_sequence(values, d=2):
    return sb.SchoenbergSequence(d, sb.SCALAR, values)


class TestOperatorConstruction:
    """The coefficient checks, on one-degree stacks."""

    def test_scalar_rejects_negative(self):
        with pytest.raises(ValueError, match="entries >= 0"):
            scalar_sequence([-0.1])

    def test_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sb.SchoenbergSequence(2, sb.MATRIX, [[[1.0, 0.2], [0.3, 1.0]]])

    def test_matrix_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            sb.SchoenbergSequence(2, sb.MATRIX, [[[1.0, 2.0], [2.0, 1.0]]])

    def test_fourier_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="entries >= 0"):
            sb.SchoenbergSequence(2, sb.FOURIER_DIAGONAL, [[1.0, -0.5]])

    @pytest.mark.parametrize("variant, stack", [
        (sb.SCALAR, [math.inf]),
        (sb.FOURIER_DIAGONAL, [[1.0, math.nan]]),
        (sb.MATRIX, [[[1.0, 0.0], [0.0, math.inf]]]),
    ])
    def test_rejects_non_finite(self, variant, stack):
        with pytest.raises(ValueError, match="finite"):
            sb.SchoenbergSequence(2, variant, stack)

    @pytest.mark.parametrize("bad, good, match", [
        (-0.1, 1.0, "entries >= 0"),
        ([1.0, -0.5], [1.0, 1.0], "entries >= 0"),
        ([math.nan, 1.0], [1.0, 1.0], "finite"),
        ([[1.0, 0.2], [0.3, 1.0]], np.eye(2), "symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], np.eye(2), "PSD"),
    ])
    def test_per_degree_helpers_keep_the_checks(self, bad, good, match):
        for call in (lambda: sb.one_degree_stack(bad),
                     lambda: eq.hs_term(bad, good, 1),
                     lambda: eq.hs_term(good, bad, 1)):
            with pytest.raises(ValueError, match=match):
                call()

    def test_coefficient_must_be_at_most_2d(self):
        with pytest.raises(ValueError, match="0-d, 1-d or 2-d"):
            sb.one_degree_stack(np.ones((1, 1, 1)))

    def test_multiquadratic_coeff_checked(self):
        # alpha_12 > sqrt(alpha_11 alpha_22): b_n is indefinite at high n
        p = md.MultiquadraticParams(d=2, sigma=(1.0, 1.0), rho12=0.5,
                                    alpha=(0.2, 0.2, 0.9))
        def coeff(n):
            e11, e22, e12 = multiquadratic_coeff_entries(p, [n])[:, 0]
            return sb.one_degree_stack([[e11, e12], [e12, e22]])[0]

        assert not coeff(0).flags.writeable
        with pytest.raises(ValueError, match="PSD"):
            coeff(10)

    def test_fourier_trace_uses_multiplicities(self):
        seq = sb.SchoenbergSequence(2, sb.FOURIER_DIAGONAL, [[1.0, 0.5, 0.25]])
        assert seq.trace_terms()[0] == pytest.approx(1.0 + 2 * 0.5 + 2 * 0.25)

    def test_quadratic_form_multiplicities(self):
        seq = sb.SchoenbergSequence(2, sb.FOURIER_DIAGONAL, [[2.0, 3.0]])
        # <b u, u> = gamma_0 u_0^2 + 2 gamma_1 u_1^2
        assert seq.quadratic_forms([1.0, 1.0])[0] == pytest.approx(8.0)


class TestPsdSquareRoot:
    def test_zero_modes_allowed(self):
        b = np.diag([1.0, 0.0])
        s = sb.operator_sqrt(b)
        assert np.allclose(s @ s, b)

    def test_matches_square(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = random_spd(rng, 4)
            s = sb.operator_sqrt(b)
            assert np.max(np.abs(s @ s - b)) < 1e-11


class TestHsDistance:
    """``||b - I||_HS^2`` as the functional term against the identity."""

    def test_identity_is_zero(self):
        assert eq.hs_term(np.eye(4), np.eye(4), 1) == 0.0

    def test_single_perturbed_eigenvalue(self):
        eps = 1e-3
        b = np.diag([1.0 + eps, 1.0])
        assert eq.hs_term(b, np.eye(2), 1) == pytest.approx(eps ** 2, rel=1e-12)

    def test_frobenius_by_hand(self):
        b = np.array([[1.0, 0.1], [0.1, 1.0]])
        assert eq.hs_term(b, np.eye(2), 1) == pytest.approx(0.02, rel=1e-12)

    def test_fourier_multiplicity_weighting(self):
        assert eq.hs_term([1.0, 1.5], np.ones(2), 1) == pytest.approx(2 * 0.25)


class TestSequence:
    def test_value_equality(self):
        mq = md.MultiquadraticParams(d=2, sigma=(1.0, 1.0), rho12=0.4,
                                     alpha=(0.5, 0.5, 0.45))
        lm = md.LegendreMaternParams(1.0, 1.0, 1.0, 16, 4)
        a, b = md.build_sequence(mq, 40), md.build_sequence(mq, 40)
        assert a == b and np.array_equal(a.coeffs[3], b.coeffs[3])
        assert a != md.build_sequence(replace(mq, rho12=0.3), 40)
        assert a != md.build_sequence(mq, 39)
        assert md.build_sequence(lm) == md.build_sequence(lm)
        assert md.build_sequence(lm) != md.build_sequence(replace(lm, alpha=2.0))
        assert sb.truncate_sequence(a, 10) == sb.truncate_sequence(b, 10)
        with pytest.raises(TypeError):
            hash(a)

    def test_coeffs_are_a_read_only_copy(self):
        values = np.array([1.0, 0.5])
        seq = scalar_sequence(values)
        values[0] = 7.0
        assert seq.coeffs.tolist() == [1.0, 0.5] and len(seq.coeffs) == seq.l_max + 1
        with pytest.raises(ValueError):
            seq.coeffs[0] = 2.0

    def test_truncate(self):
        seq = scalar_sequence([1, .5, .25])
        short = sb.truncate_sequence(seq, 1)
        assert short.l_max == 1 and short.coeffs.tolist() == seq.coeffs[:2].tolist()
        with pytest.raises(ValueError):
            sb.truncate_sequence(seq, 5)

    def test_truncation_dropping_no_degree_is_the_sequence(self):
        mq = md.MultiquadraticParams(d=2, sigma=(1.0, 1.0), rho12=0.4,
                                     alpha=(0.5, 0.5, 0.45))
        for seq in (scalar_sequence([1, .5, .25]), md.build_sequence(mq, 12),
                    md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 6, 3))):
            assert sb.truncate_sequence(seq, seq.l_max) is seq

    def test_only_builders_and_truncation_take_l_max(self):
        # A sequence is truncated where it is built, and truncate_sequence is
        # the one way to shorten it: no consumer takes a second truncation.
        # harmonics' functions take the top degree of a polynomial family or
        # basis that they build from no sequence.
        harmonic_degrees = {"gegenbauer_all", "gegenbauer_at_one_all",
                            "harmonic_count", "degree_slices", "harmonic_basis",
                            "iter_degree_blocks"}
        builders = {"build_sequence", "multiquadratic_sequence",
                    "legendre_matern_gamma_grid"}
        takers = {name for info in pkgutil.iter_modules(spherefield.__path__)
                  if not info.name.startswith("_")
                  for name, fn in public_callables(
                      importlib.import_module(f"spherefield.{info.name}"))
                  if "l_max" in inspect.signature(fn).parameters}
        assert takers == harmonic_degrees | builders | {"truncate_sequence"}


def public_callables(module):
    """(name, callable) of each public function that ``module`` defines and
    of each public method of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in vars(obj):
                method = getattr(obj, attr)
                if not attr.startswith("_") and callable(method):
                    yield f"{name}.{attr}", method


class TestKernelEval:
    def test_scalar_sum_at_one(self):
        k = sb.IsotropicKernel(scalar_sequence([1, .5, .25]))
        # P_l(1) = 1: 1 + 0.5 + 0.25
        assert float(k(1.0)) == pytest.approx(1.75, rel=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sb.IsotropicKernel(scalar_sequence([1.0]))(1.01)

    def test_matrix_value_symmetric(self):
        p = md.MultiquadraticParams(d=2, sigma=(1.0, 2.0), rho12=0.3,
                                    alpha=(0.4, 0.6, 0.45))
        seq = md.build_sequence(p, 64)
        k = sb.IsotropicKernel(seq)
        for t in (-1.0, -0.3, 0.2, 0.9):
            v = k(t)
            assert np.array_equal(v, v.T) and not v.flags.writeable

    def test_variance_at_zero_angle_mq_d3(self):
        p = md.MultiquadraticParams(d=3, sigma=(1.0, 1.2), rho12=0.4,
                                    alpha=(0.5, 0.5, 0.45))
        seq = md.build_sequence(p, 200)
        v = sb.IsotropicKernel(seq)(1.0)
        s1, s2 = p.sigma
        expect = np.array([[s1 * s1, p.rho12 * s1 * s2],
                           [p.rho12 * s1 * s2, s2 * s2]])
        assert np.max(np.abs(v - expect)) < 1e-10

    def test_scalar_kernel_against_legendre_oracle(self):
        rng = np.random.default_rng(4)
        bl = rng.uniform(0.1, 1.0, 8)
        k = sb.IsotropicKernel(scalar_sequence(bl))
        for t in np.linspace(-1, 1, 9):
            expect = sum(b * eval_legendre(l, t) for l, b in enumerate(bl))
            assert float(k(t)) == pytest.approx(expect, abs=1e-12)

    def test_trace_at_one_matches_weighted_sum(self):
        p = md.MultiquadraticParams(d=3, sigma=(1.0, 1.0), rho12=0.5,
                                    alpha=(0.3, 0.4, 0.3))
        seq = md.build_sequence(p, 50)
        k = sb.IsotropicKernel(seq)
        expect = float(np.sum(seq.trace_terms()))
        assert np.trace(k(1.0)) == pytest.approx(expect, rel=1e-13)

    def test_psd_at_one_and_joint_two_point(self):
        # R(1) is PSD up to the tail; the joint two-point covariance
        # [[R(1), R(t)], [R(t)^T, R(1)]] is PSD up to twice the tail.
        p = md.MultiquadraticParams(d=2, sigma=(1.0, 1.0), rho12=0.42,
                                    alpha=(0.9, 0.1, 0.3))
        seq = md.build_sequence(p, 200)
        k = sb.IsotropicKernel(seq)
        tail = sb.tail_bound(seq)[0]
        r1 = k(1.0)
        assert np.linalg.eigvalsh(r1)[0] >= -(tail + 1e-10)
        for t in np.linspace(-1, 1, 21):
            rt = k(t)
            joint = np.block([[r1, rt], [rt.T, r1]])
            assert np.linalg.eigvalsh(joint)[0] >= -(2 * tail + 1e-10)

    def test_tail_heuristic_flagged(self):
        bound, heuristic = sb.tail_bound(scalar_sequence([1, .5, .25]))
        assert heuristic
        assert bound == pytest.approx(0.25)


class TestTailBounds:
    def test_geometric_tail_dominates_brute_force(self):
        # oracle: direct summation of c * binom(n+d-2, n) * a^n far past L
        for d in (2, 3, 5):
            p = md.MultiquadraticParams(d=d, sigma=(1.0, 1.5), rho12=0.1,
                                        alpha=(0.6, 0.4, 0.3))
            for L in (10, 50, 200):
                brute = 0.0
                for s, a in zip(p.sigma, p.alpha[:2]):
                    c = s * s * (1.0 - a) ** (d - 1)
                    n = np.arange(L + 1, L + 4000)
                    lb = (np.vectorize(math.lgamma)(n + d - 1.0)
                          - np.vectorize(math.lgamma)(n + 1.0) - math.lgamma(d - 1.0))
                    brute += np.sum(c * np.exp(lb + n * math.log(a)))
                bound = p.trace_tail_bound(L)
                # at d = 2 the bound is the exact geometric tail, so allow
                # summation rounding on the brute-force side
                assert brute <= bound * (1.0 + 1e-12) + 1e-300
                assert bound <= brute * 50 + 1e-300

    def test_power_law_tail_dominates_brute_force(self):
        for sigma, alpha, nu in ((1.0, 1.0, 1.0), (2.0, 0.5, 0.75)):
            p = md.LegendreMaternParams(sigma, alpha, nu, 2, 2)
            for L in (5, 50, 200):
                grid = md.legendre_matern_gamma_grid(replace(p, k_max=4000), l_max=L + 3000)
                mult = np.full(4001, 2.0)
                mult[0] = 1.0
                brute = float(np.sum(grid[L + 1:] @ mult))
                assert brute <= p.trace_tail_bound(L)

    def test_serialization_roundtrip(self):
        mq = md.MultiquadraticParams(d=3, sigma=(2.0, 1.0), rho12=0.4,
                                     alpha=(0.5, 0.5, 0.3))
        assert mq.tail_to_dict() == {
            "kind": "geometric",
            "params": {"coefficients": [1.0, 0.25], "ratios": [0.5, 0.5], "d": 3}}
        assert md.LegendreMaternParams(1.0, 2.0, 0.8).tail_to_dict() == {
            "kind": "power_law", "params": {"sigma": 1.0, "alpha": 2.0, "nu": 0.8}}

    # tail_bound(seq), then validate's tail_estimate (times omega_d); the
    # values are pinned as validate and the kernel computed them before they
    # shared tail_bound
    @pytest.mark.parametrize("make, bound, heuristic, estimate", [
        pytest.param(lambda: md.build_sequence(md.MultiquadraticParams(
            d=3, sigma=(1, 1.2), rho12=.4, alpha=(.5, .5, .45)), 10),
            0.007798295454545433, False, 0.15393218227835348, id="geometric"),
        pytest.param(lambda: md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 8, 8)),
                     0.008138020833333332, False, 0.10226538585904273, id="power_law"),
        # the last term trace(b_2) C_2^1(1) = 0.25 * 3, times omega_3 = 2 pi^2
        pytest.param(lambda: scalar_sequence([1.0, 0.5, 0.25], d=3),
                     0.75, True, 14.804406601634037, id="heuristic"),
        pytest.param(lambda: scalar_sequence([1.0], d=3),
                     None, True, None, id="degree_zero"),
    ])
    def test_one_tail_bound(self, make, bound, heuristic, estimate):
        seq = make()
        assert sb.tail_bound(seq) == (bound, heuristic)
        report = sb.validate_sequence(seq)
        assert (report["tail_estimate"], report["tail_is_heuristic"]) == (estimate, heuristic)
        assert (("tail estimate is a last-term heuristic" in report["flags"])
                == (heuristic and bound is not None))


class TestValidateSequence:
    def test_multiquadratic_valid_passes(self):
        p = md.MultiquadraticParams(d=2, sigma=(1.0, 1.0), rho12=0.5,
                                    alpha=(0.5, 0.5, 0.5))
        report = sb.validate_sequence(md.build_sequence(p, 100))
        assert report["passed"] and report["strictly_positive"]
        assert report["psd_valid"] is True
        assert not report["flags"]

    def test_zero_coefficient_flagged(self):
        seq = sb.SchoenbergSequence(2, sb.MATRIX, [np.eye(2), np.zeros((2, 2))])
        report = sb.validate_sequence(seq)
        assert not report["passed"]
        assert report["psd_valid"] is True
        assert "not strictly positive" in report["flags"]

    def test_legendre_matern_tail_small(self):
        p = md.LegendreMaternParams(1.0, 1.0, 1.0, 200, 200)
        report = sb.validate_sequence(md.build_sequence(p))
        total = report["weighted_partial_sums"][-1]
        assert report["tail_estimate"] is not None and not report["tail_is_heuristic"]
        assert report["tail_estimate"] < 1e-3 * total

    def test_report_serializes_against_schema(self):
        p = md.LegendreMaternParams(1.0, 1.0, 1.0, 20, 20)
        report = sb.validate_sequence(md.build_sequence(p))
        validate_schema("validity_report.schema.json", report)


class TestSequenceSerialization:
    @pytest.mark.parametrize("make", [
        lambda: scalar_sequence([1, .5]),
        lambda: md.build_sequence(
            md.MultiquadraticParams(d=3, sigma=(1, 1.2), rho12=.4,
                                    alpha=(.5, .5, .45)), 10),
        lambda: md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 8, 8)),
    ])
    def test_roundtrip(self, make):
        validate_schema("sequence.schema.json", sb.sequence_to_dict(make()))


@pytest.mark.parametrize("call, message", [
    (lambda: sb.SchoenbergSequence(2, "bogus", [1.0]), "unknown variant 'bogus'"),
    (lambda: sb.SchoenbergSequence(2, sb.MATRIX, np.zeros((2, 2, 3))),
     "matrix coefficients must stack to a nonempty 3-d array (matrices square), "
     "got shape (2, 2, 3)"),
    (lambda: sb.SchoenbergSequence(0, sb.SCALAR, [1.0]),
     "sphere dimension must be >= 1, got 0"),
    (lambda: sb.SchoenbergSequence(2, sb.MATRIX, [np.eye(2)]).quadratic_forms([1, 0, 0]),
     "direction must have length 2, got shape (3,)"),
], ids=["unknown_variant", "matrix_not_square", "d0", "direction_length"])
def test_sequence_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_sequence_is_not_equal_to_another_type():
    seq = scalar_sequence([1.0])
    assert (seq == 3) is False and seq != 3
