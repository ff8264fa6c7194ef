import importlib
import inspect
import math
import pkgutil
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import eval_legendre

import spherefield
from spherefield import equivalence as eq
from spherefield import models as md
from spherefield import schoenberg as sb
from _reference import load_schema, multiquadratic_coeff_entries, validate_schema


def random_spd(rng, p, jitter=0.05):
    a = rng.standard_normal((p, p))
    return a @ a.T + jitter * np.eye(p)


def scalar_sequence(values, d=2):
    return sb.SchoenbergSequence(d, values)


class TestOperatorConstruction:
    """The coefficient checks, on one-degree stacks."""

    def test_scalar_rejects_negative(self):
        with pytest.raises(ValueError, match="entries >= 0"):
            scalar_sequence([-0.1])

    def test_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sb.SchoenbergSequence(2, [[[1.0, 0.2], [0.3, 1.0]]])

    def test_matrices_near_float64_max_are_checked_without_overflow(self):
        # the symmetric parts of these stacks are finite, but their sums
        # and Frobenius norms are not: a symmetric stack keeps its bits, an
        # asymmetric one is refused, and a numpy warning fails the test
        big = 0.9 * np.finfo(float).max
        sym = np.array([[[big, 0.4 * big], [0.4 * big, big]], [[1.0, 0.5], [0.5, 2.0]]])
        seq = sb.SchoenbergSequence(2, sym)
        assert seq.coeffs.tobytes() == sym.tobytes()
        with pytest.raises(ValueError, match="b_1 must be symmetric"):
            sb.SchoenbergSequence(2, [np.eye(2), [[big, big], [-big, big]]])

    def test_near_symmetric_matrix_is_returned_symmetric(self):
        # within the tolerance; the difference of the two off-diagonal
        # entries rounds, so each half-way value rounds on its own
        b = [[1.0, 8.342681987093789e-21], [1.0246465015313328e-21, 1.0]]
        c = sb.SchoenbergSequence(2, [b]).coeffs[0]
        assert c[0, 1] == c[1, 0] == pytest.approx(4.68366424431256e-21, rel=1e-15)

    def test_sequence_with_entries_near_float64_max(self):
        # sigma^2 = 1.69e308 is a valid scale; b_0's diagonal is 1.67e308,
        # and its trace is beyond float64
        p = md.MultiquadraticParams(d=2, sigma=(1.3e154, 1.3e154), rho12=0.4,
                                    alpha=(0.01, 0.01, 0.009))
        seq = md.build_sequence(p, 40)
        assert sb.validate_sequence(seq)["flags"] == [sb.TRACE_NOT_FINITE]
        terms = eq.functional_series(seq, md.build_sequence(
            replace(p, alpha=(0.01, 0.01, 0.008)), 40))
        assert np.all(np.isfinite(terms))

    def test_matrix_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            sb.SchoenbergSequence(2, [[[1.0, 2.0], [2.0, 1.0]]])

    def test_fourier_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="entries >= 0"):
            sb.SchoenbergSequence(2, [[1.0, -0.5]])

    @pytest.mark.parametrize("variant, stack", [
        (sb.SCALAR, [math.inf]),
        (sb.FOURIER_DIAGONAL, [[1.0, math.nan]]),
        (sb.MATRIX, [[[1.0, 0.0], [0.0, math.inf]]]),
    ])
    def test_rejects_non_finite(self, variant, stack):
        with pytest.raises(ValueError, match="finite"):
            sb.SchoenbergSequence(2, stack)

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
        seq = sb.SchoenbergSequence(2, [[1.0, 0.5, 0.25]])
        assert seq.trace_terms()[0] == pytest.approx(1.0 + 2 * 0.5 + 2 * 0.25)

    def test_quadratic_form_multiplicities(self):
        seq = sb.SchoenbergSequence(2, [[2.0, 3.0]])
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

    @pytest.mark.parametrize("make, adopted", [
        pytest.param(lambda a: a, True, id="read_only_owner"),
        pytest.param(lambda a: a.copy(), False, id="writable"),
        pytest.param(lambda a: a[1:], False, id="view"),
        pytest.param(lambda a: a.reshape(1, -1), False, id="read_only_view"),
    ])
    def test_read_only_owned_stack_is_adopted(self, make, adopted):
        # a read-only float64 stack that owns its data is stored as it is;
        # any other is copied, so no caller can write the sequence's stack
        base = np.array([[1.0, 0.5, 0.25], [0.5, 0.25, 0.125]])
        base.setflags(write=False)
        stack = make(base)
        seq = sb.SchoenbergSequence(2, stack)
        assert np.shares_memory(seq.coeffs, stack) == adopted
        assert np.array_equal(seq.coeffs, stack) and not seq.coeffs.flags.writeable

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
                # at d = 2 the bound is the geometric tail raised by its
                # log-rounding margin (about 1e-11 relative here), so allow
                # summation rounding on the brute-force side
                assert brute <= bound * (1.0 + 1e-12) + 1e-300
                assert bound <= brute * 50 + 1e-300

    def test_bound_is_never_below_the_exact_d2_tail(self):
        # at d = 2 the terms are sigma^2 (1 - a) a^n, so the tail past L is
        # exactly sum_i sigma_i^2 a_ii^(L+1); the bound may not round below
        # it, and may exceed it only by its rounding margin.  The default MQ
        # at every L in 0..1000, and 300 seeded draws, each with one rate
        # within 1e-2 to 1e-12 of 1 (where 1 - a loses digits unless taken
        # first), whose tail stays above 1e-306 (the bound is a float64),
        # and one whose closing term is subnormal; about 0.6 s.
        def check(p, L):
            exact = sum(Fraction(s) ** 2 * Fraction(a) ** (L + 1)
                        for s, a in zip(p.sigma, p.alpha[:2]))
            bound = Fraction(p.trace_tail_bound(L))
            return exact <= bound <= exact * (1 + Fraction(1, 10 ** 9))

        default = md.MultiquadraticParams(d=2, sigma=(1, 1), rho12=0.4,
                                          alpha=(0.5, 0.5, 0.45))
        cases = [(default, L) for L in range(1001)]
        rng = np.random.default_rng(32)
        for _ in range(300):
            sigma = tuple(10.0 ** rng.uniform(-3.0, 3.0, 2))
            a11, a22 = rng.uniform(0.01, 0.99), 1.0 - 10.0 ** -rng.uniform(2.0, 12.0)
            p = md.MultiquadraticParams(d=2, sigma=sigma, rho12=0.1,
                                        alpha=(a11, a22, min(a11, a22)))
            # a^(L+1) >= e^-690 > 1e-300 for both entries
            l_cap = min(1000, int(-690.0 / math.log(min(a11, a22))) - 1)
            cases.append((p, int(rng.integers(0, l_cap + 1))))
        # a closing term below the normal range: c = sigma^2 (1 - a) is
        # subnormal, and dividing it by 1 - a kept its lost digits
        tiny = md.MultiquadraticParams(d=2, sigma=(5.217262470541097e-150,) * 2,
                                       rho12=0.1, alpha=(0.9999999999999997,) * 3)
        cases.append((tiny, 950))
        failing = [(p.sigma, p.alpha, L) for p, L in cases if not check(p, L)]
        assert not failing, f"{len(failing)} of {len(cases)}: {failing[:3]}"

    def test_underflowed_prefactor_still_bounds_the_tail(self):
        # c = (1 - a)^(d-1) = 2^-1999 is 0 in float64, but the terms
        # c binom(n+d-2, n) a^n peak near n = d, so the tail past L = 200 is
        # sigma_1^2 + sigma_2^2 = 2 (up to 1e-300), not 0
        d = 2000
        p = md.MultiquadraticParams(d=d, sigma=(1.0, 1.0), rho12=1e-300,
                                    alpha=(0.5, 0.5, 0.4))
        lgamma = np.vectorize(math.lgamma)

        def brute(L):
            n = np.arange(L + 1, L + 20000)
            log_terms = (lgamma(n + d - 1.0) - lgamma(n + 1.0) - math.lgamma(d - 1.0)
                         + n * math.log(0.5) + (d - 1) * math.log1p(-0.5))
            return 2.0 * float(np.sum(np.exp(log_terms)))

        assert brute(200) == pytest.approx(2.0, rel=1e-12)
        for L in (200, 3000):
            # at L = 200 the bound is sigma_1^2 + sigma_2^2, the sum of all
            # terms, which the brute-force sum exceeds by its rounding
            bound = p.trace_tail_bound(L)
            assert 0.0 < brute(L) <= bound * (1.0 + 1e-12) and bound <= 2 * brute(L)

    @pytest.mark.parametrize("L", [3, 30, 100])
    def test_bound_is_finite_where_the_first_ratio_exceeds_one(self, L):
        # a = .9, d = 10: the term ratio a (n + 9) / (n + 1) is above 1 up to
        # n = 71.  One entry's terms are sigma^2 times the negative binomial
        # pmf of d - 1 = 9 successes at probability 1 - a, so the tail is
        # sigma^2 sf(L) for each of the two entries.
        p = md.MultiquadraticParams(d=10, sigma=(1.0, 1.0), rho12=1e-7,
                                    alpha=(0.9, 0.9, 0.5))
        tail = 2.0 * float(stats.nbinom.sf(L, 9, 0.1))
        assert tail <= p.trace_tail_bound(L) <= 1.02 * tail

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
    # shared tail_bound, the geometric ones since its closure at the first
    # term carries the log-rounding margin (about 1.7e-13 relative here)
    @pytest.mark.parametrize("make, bound, heuristic, estimate", [
        pytest.param(lambda: md.build_sequence(md.MultiquadraticParams(
            d=3, sigma=(1, 1.2), rho12=.4, alpha=(.5, .5, .45)), 10),
            0.007798295454546749, False, 0.15393218227837946, id="geometric"),
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
        seq = sb.SchoenbergSequence(2, [np.eye(2), np.zeros((2, 2))])
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


@pytest.mark.parametrize("schema", ["sequence.schema.json", "validity_report.schema.json"])
def test_schema_variants_are_the_code_variants(schema):
    enum = load_schema(schema)["properties"]["variant"]["enum"]
    assert (set(enum) == set(sb._STACK_VARIANT.values())
            == {sb.SCALAR, sb.FOURIER_DIAGONAL, sb.MATRIX})


@pytest.mark.parametrize("stack, variant, labels", [
    ([1.0, 0.5], sb.SCALAR, ["R"]),
    ([[1.0, 0.5], [0.5, 0.25]], sb.FOURIER_DIAGONAL, ["gamma[0]", "gamma[1]"]),
    ([np.eye(2), 0.5 * np.eye(2)], sb.MATRIX, ["R[0][0]", "R[0][1]", "R[1][0]", "R[1][1]"]),
], ids=["scalar", "fourier", "matrix"])
def test_stack_ndim_names_the_variant(stack, variant, labels):
    seq = sb.SchoenbergSequence(2, stack)
    as_dict, report = sb.sequence_to_dict(seq), sb.validate_sequence(seq)
    validate_schema("sequence.schema.json", as_dict)
    validate_schema("validity_report.schema.json", report)
    assert (seq.variant, as_dict["variant"], report["variant"]) == (variant,) * 3
    assert sb.entry_labels(seq) == labels


def test_scalar_and_one_entry_fourier_are_incompatible():
    # shape[1:] is () against (1,): the one pair of equal size to tell apart
    with pytest.raises(ValueError) as info:
        sb.check_compatible(sb.SchoenbergSequence(2, [1.0, 0.5]),
                            sb.SchoenbergSequence(2, [[1.0], [0.5]]))
    assert str(info.value) == ("sequences must share variant and coefficient size, "
                               "got scalar of size 1 and fourier_diagonal of size 1")


@pytest.mark.parametrize("call, message", [
    (lambda: sb.SchoenbergSequence(2, np.ones((1, 2, 2, 2))),
     "coefficients must stack to an (L+1,) scalar, (L+1, K+1) fourier or "
     "(L+1, p, p) matrix array, got shape (1, 2, 2, 2)"),
    (lambda: sb.SchoenbergSequence(2, np.zeros((2, 2, 3))),
     "matrix coefficients must stack to a nonempty 3-d array (matrices square), "
     "got shape (2, 2, 3)"),
    (lambda: sb.SchoenbergSequence(0, [1.0]),
     "sphere dimension must be >= 1, got 0"),
    (lambda: sb.SchoenbergSequence(2, [np.eye(2)]).quadratic_forms([1, 0, 0]),
     "direction must have length 2, got shape (3,)"),
], ids=["stack_4d", "matrix_not_square", "d0", "direction_length"])
def test_sequence_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_sequence_is_not_equal_to_another_type():
    seq = scalar_sequence([1.0])
    assert (seq == 3) is False and seq != 3
