import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_legendre

from spherefield import _memory
from spherefield import harmonics as sh
from _reference import sphere_quadrature, zonal_sum


def gegenbauer(lam, l, t):
    """``C_l^lam(t)``, the last row of :func:`gegenbauer_all`."""
    return sh.gegenbauer_all(lam, l, t)[l]


def generating_function_residual(lam, alpha, t_grid, n_terms):
    """Oracle: sum_n C_n^lam(t) alpha^n must equal (1 - 2 alpha t + alpha^2)^-lam."""
    c = sh.gegenbauer_all(lam, n_terms, t_grid)
    powers = alpha ** np.arange(n_terms + 1)
    series = np.tensordot(powers, c, axes=([0], [0]))
    closed = (1.0 - 2.0 * alpha * t_grid + alpha ** 2) ** (-lam)
    return np.max(np.abs(series - closed))


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert gegenbauer(1.0, 0, 0.37) == 1.0

    def test_degree_one_linear(self):
        # C_1^lam(t) = 2 lam t from the recurrence
        assert gegenbauer(0.5, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert gegenbauer(1.5, 1, -0.2) == pytest.approx(-0.6, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
    def test_generating_function_identity(self, lam):
        t = np.linspace(-1.0, 1.0, 101)
        assert generating_function_residual(lam, 0.3, t, 60) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("l", [0, 1, 2, 5, 17, 40])
    def test_against_scipy(self, lam, l):
        t = np.linspace(-1.0, 1.0, 23)
        ours = gegenbauer(lam, l, t)
        ref = eval_gegenbauer(l, lam, t)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(ours - ref)) < 1e-10 * scale

    def test_high_degree_value(self):
        # frozen from scipy.special.eval_gegenbauer(40, 1.5, -0.8)
        assert gegenbauer(1.5, 40, -0.8) == pytest.approx(7.929262495110367, rel=1e-9)

    def test_chebyshev_limit(self):
        t = np.linspace(-1.0, 1.0, 41)
        for l in (0, 1, 3, 10):
            assert np.allclose(gegenbauer(0.0, l, t), np.cos(l * np.arccos(t)),
                               atol=1e-13)

    def test_bounded_by_value_at_one(self):
        t = np.linspace(-1.0, 1.0, 201)
        for lam in (0.0, 0.5, 1.0, 1.5, 2.5):
            vals = sh.gegenbauer_all(lam, 30, t)
            at_one = np.array([sh.gegenbauer_at_one(lam, l) for l in range(31)])
            assert np.all(np.abs(vals) <= at_one[:, None] * (1.0 + 1e-12))

    def test_t_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(1.0, 3, 1.1)
        # values within the clamp tolerance are accepted
        gegenbauer(1.0, 3, 1.0 + 5e-13)


class TestGegenbauerAtOne:
    def test_legendre_normalization(self):
        assert sh.gegenbauer_at_one(0.5, 7) == 1.0

    def test_lambda_one(self):
        # C_l^1(1) = l + 1 via the recurrence at t = 1
        assert sh.gegenbauer_at_one(1.0, 3) == pytest.approx(4.0, rel=1e-12)

    def test_lambda_three_halves(self):
        assert sh.gegenbauer_at_one(1.5, 2) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.5])
    def test_matches_recurrence_at_one(self, lam):
        vals = sh.gegenbauer_all(lam, 50, 1.0)
        at_one = np.array([sh.gegenbauer_at_one(lam, l) for l in range(51)])
        assert np.allclose(vals, at_one, rtol=1e-11)

    def test_large_degree_no_overflow(self):
        v = sh.gegenbauer_at_one(2.5, 100_000)
        assert math.isfinite(v) and v > 0

    def test_large_order_exact(self):
        # C_3(1) = (2 lam)(2 lam + 1)(2 lam + 2) / 6 at lam = 5e14, rounded
        # once; a log-Gamma form would lose digits to cancellation here, and
        # all of them (1.0) from lam ~ 5e17 on
        assert sh.gegenbauer_at_one(5e14, 3) == 1.6666666666666718e44
        assert sh.gegenbauer_at_one(5e17, 1) == 1e18
        assert sh.gegenbauer_at_one_all(5e17, 2)[1] == 1e18

    def test_beyond_float64_is_inf_from_then_on(self):
        # binom(l + 999, l) first leaves float64 at l = 308 (d = 1001)
        at_one = sh.gegenbauer_at_one_all(500.0, 400)
        assert np.all(np.isfinite(at_one[:308])) and np.all(at_one[308:] == math.inf)
        assert at_one[307] == sh.gegenbauer_at_one(500.0, 307)
        assert sh.gegenbauer_at_one(500.0, 308) == math.inf

    def test_chebyshev_limit_is_one(self):
        assert sh.gegenbauer_at_one(0.0, 9) == 1.0
        assert np.array_equal(sh.gegenbauer_at_one_all(0.0, 9), np.ones(10))

    @pytest.mark.parametrize("lam", [-0.5, 0.25, 1.3])
    def test_order_must_be_a_half_integer(self, lam):
        for call in (lambda: sh.gegenbauer_at_one(lam, 2),
                     lambda: sh.gegenbauer_at_one_all(lam, 2)):
            with pytest.raises(ValueError, match="half-integer"):
                call()


class TestEigenspaceDims:
    def test_sphere_values(self):
        assert sh.h_dim(2, 5) == 11
        assert sh.h_dim(3, 2) == 9
        assert sh.h_dim(4, 0) == 1
        assert sh.h_dim(7, 0) == 1

    def test_circle_convention(self):
        assert sh.h_dim(1, 0) == 1
        assert [sh.h_dim(1, l) for l in (1, 2, 9)] == [2, 2, 2]

    def test_s2_closed_form(self):
        for l in range(1001):
            assert sh.h_dim(2, l) == 2 * l + 1

    def test_exact_formula_against_factorials(self):
        for d in (2, 3, 5, 11, 32):
            for l in (1, 2, 17, 400):
                expect = (2 * l + d - 1) * math.factorial(l + d - 2) \
                    // (math.factorial(l) * math.factorial(d - 1))
                assert sh.h_dim(d, l) == expect

    def test_large_degree_exact(self):
        # closed forms: h(2,l) = 2l+1, h(3,l) = (l+1)^2
        assert sh.h_dim(2, 10 ** 6) == 2 * 10 ** 6 + 1
        assert sh.h_dim(3, 10 ** 6) == (10 ** 6 + 1) ** 2

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sh.h_dim(0, 3)
        with pytest.raises(ValueError):
            sh.h_dim(2, -1)


class TestSurfaceMeasure:
    def test_circle(self):
        assert sh.surface_measure(1) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sh.surface_measure(2) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere(self):
        assert sh.surface_measure(3) == pytest.approx(2 * math.pi ** 2, rel=1e-15)


class TestRealHarmonics:
    def test_constant_harmonic(self):
        pts = [[0, 0, 1.0], [1.0, 0, 0], [0.6, 0.8, 0.0]]
        assert sh.harmonic_basis(2, 0, pts)[:, 0] == pytest.approx(
            np.full(3, 1.0 / math.sqrt(4 * math.pi)), rel=1e-14)

    def test_circle_degree_one(self):
        cos1, sin1 = sh.harmonic_basis(1, 1, [[1.0, 0.0]])[0, 1:]
        assert cos1 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert sin1 == pytest.approx(0.0, abs=1e-15)

    def test_unsupported_dimension_message(self):
        with pytest.raises(ValueError, match="d in \\{1, 2\\}"):
            sh.harmonic_basis(3, 1, [[1.0, 0, 0, 0]])

    def test_non_unit_point_rejected(self):
        with pytest.raises(ValueError, match="unit vectors"):
            sh.harmonic_basis(2, 1, [[0, 0, 1.5]])

    @pytest.mark.parametrize("d", [1, 2])
    def test_orthonormality_under_quadrature(self, d):
        l_max = 10
        pts, w = sphere_quadrature(d, 2 * l_max)
        basis = sh.harmonic_basis(d, l_max, pts)
        gram = basis.T @ (w[:, None] * basis)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_quadrature_total_mass(self):
        for d in (1, 2):
            _, w = sphere_quadrature(d, 8)
            assert w.sum() == pytest.approx(sh.surface_measure(d), rel=1e-13)


class TestAdditionIdentity:
    @pytest.mark.parametrize("d", [1, 2])
    def test_zonal_sum_matches_gegenbauer(self, d):
        rng = np.random.default_rng(2024)
        lam = sh.gegenbauer_order(d)
        for _ in range(100):
            x = rng.standard_normal(d + 1)
            y = rng.standard_normal(d + 1)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            t = float(np.clip(x @ y, -1, 1))
            for l in range(11):
                expect = sh.addition_constant(d, l) * gegenbauer(lam, l, t)
                assert zonal_sum(d, l, x, y) == pytest.approx(expect, abs=1e-10)

    def test_s2_zonal_against_legendre(self):
        # independent associated-Legendre route: sum_m Y Y = (2l+1)/(4pi) P_l(x.y)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            t = float(np.clip(x @ y, -1, 1))
            for l in (0, 1, 3, 8):
                expect = (2 * l + 1) / (4 * math.pi) * eval_legendre(l, t)
                assert zonal_sum(2, l, x, y) == pytest.approx(expect, abs=1e-10)

    def test_constant_degree(self):
        assert zonal_sum(2, 0, [0, 0, 1.0], [1.0, 0, 0]) == pytest.approx(
            1.0 / (4 * math.pi), rel=1e-13)

    def test_circle_norm_collapse(self):
        # x = y collapses the degree-2 zonal sum to h(2)/omega_1 = 2/(2 pi)
        assert zonal_sum(1, 2, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(
            1.0 / math.pi, rel=1e-13)


class TestBasisLayout:
    def test_counts_and_slices(self):
        assert sh.harmonic_count(2, 3) == 16
        assert sh.harmonic_count(1, 3) == 7
        slices = sh.degree_slices(2, 2)
        assert [s.start for s in slices] == [0, 1, 4]


def scalar_recurrence_basis(l_max, pts):
    """Reference d = 2 basis: the per-(l, m) scalar form of the normalized
    associated-Legendre recurrence (sectoral diagonal, then ascent in l),
    one column at a time.  The vectorized basis must match it bit for bit.
    """
    n = pts.shape[0]
    out = np.empty((n, sh.harmonic_count(2, l_max)))
    u = pts[:, 2]
    s = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cos_m = {m: np.cos(m * phi) for m in range(1, l_max + 1)}
    sin_m = {m: np.sin(m * phi) for m in range(1, l_max + 1)}
    sqrt2 = math.sqrt(2.0)

    def store(l, m, pbar):
        base = l * l
        if m == 0:
            out[:, base] = pbar
        else:
            out[:, base + 2 * m - 1] = sqrt2 * pbar * cos_m[m]
            out[:, base + 2 * m] = sqrt2 * pbar * sin_m[m]

    pmm = np.full(n, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(l_max + 1):
        if m > 0:
            pmm = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * pmm
        store(m, m, pmm)
        if m + 1 <= l_max:
            p_prev2 = pmm
            p_prev1 = math.sqrt(2.0 * m + 3.0) * u * pmm
            store(m + 1, m, p_prev1)
            for l in range(m + 2, l_max + 1):
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m)
                              / ((2.0 * l - 3.0) * (l * l - m * m)))
                p = a * u * p_prev1 - b * p_prev2
                store(l, m, p)
                p_prev2, p_prev1 = p_prev1, p
    return out


def random_points(d, n, seed):
    pts = np.random.default_rng(seed).standard_normal((n, d + 1))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


class TestBasisArithmetic:
    @pytest.mark.parametrize("l_max", [0, 1, 2, 24])
    def test_bitwise_equal_to_scalar_recurrence(self, l_max):
        pts = random_points(2, 37, seed=11)
        basis = sh.harmonic_basis(2, l_max, pts)
        assert basis.flags.c_contiguous
        assert np.array_equal(basis, scalar_recurrence_basis(l_max, pts))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("l_max", [0, 5, 20])
    def test_lower_degree_basis_is_column_prefix(self, d, l_max):
        pts = random_points(d, 29, seed=12)
        small = sh.harmonic_basis(d, l_max, pts)
        large = sh.harmonic_basis(d, l_max + 7, pts)
        assert np.array_equal(small, large[:, :sh.harmonic_count(d, l_max)])

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("l_max", [0, 1, 17])
    def test_degree_blocks_are_basis_columns(self, d, l_max):
        pts = random_points(d, 23, seed=13)
        basis = sh.harmonic_basis(d, l_max, pts)
        slices = sh.degree_slices(d, l_max)
        n_blocks = 0
        for l, block in enumerate(sh.iter_degree_blocks(d, l_max, pts)):
            assert block.flags.c_contiguous and not block.flags.writeable
            assert np.array_equal(block, basis[:, slices[l]])
            n_blocks += 1
        assert n_blocks == l_max + 1

    def test_degree_blocks_check_arguments_on_call(self):
        with pytest.raises(ValueError, match="d in"):
            sh.iter_degree_blocks(3, 2, np.eye(4))
        with pytest.raises(ValueError, match="unit vectors"):
            sh.iter_degree_blocks(2, 2, [[0.0, 0.0, 2.0]])

    def test_recurrence_state_checked_against_memory(self, monkeypatch):
        # (8 * 100 + 6) * 200 * 8 bytes of state, against 1 MB "installed"
        monkeypatch.setattr(_memory, "physical_memory", lambda: 10**6)
        with pytest.raises(MemoryError, match="physical memory"):
            sh.iter_degree_blocks(2, 100, random_points(2, 200, seed=1))
        sh.iter_degree_blocks(2, 10, random_points(2, 200, seed=1))


@pytest.mark.parametrize("call, message", [
    (lambda: sh.gegenbauer_order(0), "sphere dimension must be >= 1, got 0"),
    (lambda: sh.gegenbauer_all(-0.5, 3, 0.1), "Gegenbauer order must be >= 0, got -0.5"),
    (lambda: sh.gegenbauer_all(0.5, -1, 0.1), "degree must be >= 0, got -1"),
    (lambda: sh.gegenbauer_at_one(0.5, -1), "degree must be >= 0, got -1"),
    (lambda: sh.check_points(2, [[0, 1]]), "points on S^2 must have 3 coordinates, got 2"),
], ids=["order_d0", "all_negative_order", "all_negative_degree", "at_one_negative_degree",
        "points_wrong_width"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_surface_measure_beyond_log_gamma_is_zero():
    # log Gamma((d+1)/2) itself leaves float64
    assert sh.surface_measure(10 ** 306) == 0.0
