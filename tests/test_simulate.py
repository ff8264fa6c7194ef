import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from spherefield import harmonics as sh
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield import simulate as sim
from spherefield import _blas
from spherefield._blas import one_blas_thread
from _reference import (fourier_function_values, openblas_threads, patch_draws,
                        traced_peak, validate_schema)


def mq_sequence(l_max=20, d=2, sigma=(1.0, 1.0), rho12=0.4, alpha=(0.5, 0.5, 0.3)):
    p = md.MultiquadraticParams(d=d, sigma=sigma, rho12=rho12, alpha=alpha)
    return md.build_sequence(p, l_max)


def reference_ensemble(seq, grid, n_fields, seed, stream):
    """The ensemble loop as it was before batch buffers were reused: a fresh
    draw array per batch of up to 24M elements, scaled in place and
    contracted by tensordot."""
    L = seq.l_max
    rng = sim.make_generator(seed, stream)
    basis = sh.harmonic_basis(seq.d, L, grid.points)
    slices = sh.degree_slices(seq.d, L)
    H = sh.harmonic_count(seq.d, L)
    dim = sim.unfolded_dim(seq)
    factors = [sim._scale_factor(seq, l) for l in range(L + 1)]
    out = np.empty((n_fields, grid.n_points, dim))
    batch = max(1, 24_000_000 // max(1, H * dim))
    done = 0
    while done < n_fields:
        nb = min(batch, n_fields - done)
        z = rng.standard_normal((nb, H, dim))
        if seq.variant == sb.MATRIX:
            for l in range(L + 1):
                z[:, slices[l], :] = z[:, slices[l], :] @ factors[l]
        else:
            row_scale = np.concatenate(
                [np.broadcast_to(factors[l], (sh.h_dim(seq.d, l), dim))
                 for l in range(L + 1)], axis=0)
            z *= row_scale[None, :, :]
        vals = np.tensordot(z, basis, axes=([1], [1]))
        out[done:done + nb] = np.swapaxes(vals, 1, 2)
        done += nb
    return out


def reference_field(seq, grid, seed, stream):
    """The field loop as it was before degree streaming: one slice of the
    full basis per degree."""
    L = seq.l_max
    rng = sim.make_generator(seed, stream)
    basis = sh.harmonic_basis(seq.d, L, grid.points)
    slices = sh.degree_slices(seq.d, L)
    values = np.zeros((grid.n_points, sim.unfolded_dim(seq)))
    for l in range(L + 1):
        values += basis[:, slices[l]] @ sim.sample_coefficients(seq, l, rng)
    return values


def theta_pairs(thetas):
    return np.array([[[0.0, 0.0, 1.0],
                      [math.sin(t), 0.0, math.cos(t)]] for t in thetas])


class TestRng:
    def test_same_key_bit_identical(self):
        a = sim.make_generator(123, 5).standard_normal(100)
        b = sim.make_generator(123, 5).standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sim.make_generator(123, 5).standard_normal(100)
        b = sim.make_generator(123, 6).standard_normal(100)
        assert not np.allclose(a, b)

    def test_key_words_span_64_bits(self):
        top = 2 ** 64 - 1
        a = sim.make_generator(top, top).standard_normal(4)
        b = sim.make_generator(0, 0).standard_normal(4)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2 ** 64, 0),
                                              (0, -1), (0, 2 ** 64)])
    def test_key_out_of_range_rejected(self, seed, stream):
        # masking to 64 bits would alias -1 with 2^64 - 1 and 2^64 with 0
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            sim.make_generator(seed, stream)


class TestSampleGrid:
    def test_grid_builders(self):
        g1 = sim.SampleGrid.equispaced_circle(7)
        assert g1.d == 1 and g1.n_points == 7
        g2 = sim.SampleGrid.equiangular(4, 8)
        assert g2.d == 2 and g2.n_points == 32
        g3 = sim.SampleGrid.uniform_random(2, 11, seed=3)
        assert g3.n_points == 11
        assert np.allclose(np.linalg.norm(g3.points, axis=1), 1.0, atol=1e-12)

    def test_uniform_reproducible(self):
        a = sim.SampleGrid.uniform_random(1, 5, seed=9)
        b = sim.SampleGrid.uniform_random(1, 5, seed=9)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("points", [[[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0]],
                                        [[0.0, math.inf, 1.0]]], ids=["nan", "inf"])
    def test_non_finite_point_rejected(self, points):
        with pytest.raises(ValueError, match="must be finite"):
            sim.SampleGrid.from_points(2, points)

    @pytest.mark.parametrize("build, d", [
        (lambda: sim.SampleGrid.equispaced_circle(10 ** 12), 1),
        (lambda: sim.SampleGrid.uniform_random(2, 10 ** 12), 2),
        (lambda: sim.SampleGrid.equiangular(10 ** 6, 10 ** 6), 2),
    ], ids=["equispaced", "uniform", "equiangular"])
    def test_grid_beyond_memory_refused_before_allocation(self, build, d):
        with pytest.raises(MemoryError,
                           match=f"a grid of 1000000000000 points on S\\^{d} needs"):
            build()

    def test_unsupported_dimension_message(self):
        with pytest.raises(ValueError, match="restricted to d in \\{1, 2\\}"):
            sim.SampleGrid.from_points(3, np.eye(4))

    def test_from_spec(self):
        g = sim.SampleGrid.from_spec({"kind": "equispaced", "n": 4})
        assert g.d == 1
        g2 = sim.SampleGrid.from_spec(
            {"kind": "points", "d": 2, "points": [[0, 0, 1], [1, 0, 0]]})
        assert g2.n_points == 2
        with pytest.raises(ValueError, match="unknown grid kind"):
            sim.SampleGrid.from_spec({"kind": "fibonacci", "n": 5})

    def test_construction_builds_no_basis(self, basis_calls):
        for spec in ({"kind": "equispaced", "n": 4},
                     {"kind": "equiangular", "n_polar": 3, "n_azimuth": 4},
                     {"kind": "uniform", "d": 2, "n": 5, "seed": 1},
                     {"kind": "points", "d": 2, "points": [[0, 0, 1]]}):
            sim.SampleGrid.from_spec(spec)
        assert basis_calls == []

    def test_fields_build_no_basis_and_ensemble_builds_one(self, basis_calls):
        seq = mq_sequence(8)
        grid = sim.SampleGrid.uniform_random(2, 6, seed=2)
        for stream in range(3):
            sim.synthesize_field(seq, grid, seed=1, stream=stream)
        sim.synthesize_fields(seq, grid, [3, 4], seed=1)
        assert basis_calls == []
        sim.synthesize_ensemble(sb.truncate_sequence(seq, 5), grid, 4, seed=1)
        assert basis_calls == [5]


class TestSampleCoefficients:
    def test_zero_coefficient_gives_zero_draws(self):
        seq = sb.SchoenbergSequence(2, [1.0, 0.0])
        a = sim.sample_coefficients(seq, 1, sim.make_generator(0))
        assert a.shape == (3, 1) and np.all(a == 0.0)

    def test_scalar_bridge_variance(self):
        # b_l = 1, d = 2: coefficient variance is 4 pi / (2l + 1)
        l = 3
        seq = sb.SchoenbergSequence(2, np.ones(l + 1))
        rng = sim.make_generator(2024)
        n_draws = 100_000
        h = sh.h_dim(2, l)
        draws = np.empty((n_draws, h))
        for i in range(n_draws):
            draws[i] = sim.sample_coefficients(seq, l, rng)[:, 0]
        target = 4 * math.pi / (2 * l + 1)
        emp = draws.var(axis=0, ddof=1)
        # variance of a sample variance: 2 sigma^4 / (n - 1)
        se = target * math.sqrt(2.0 / (n_draws - 1))
        assert np.all(np.abs(emp - target) < 3 * se)

    def test_matrix_coefficient_law(self):
        # E[a a^T] = bhat_l within 4 SE over 10^4 draws (p = 2)
        seq = mq_sequence(6)
        l = 2
        rng = sim.make_generator(77)
        n_draws = 10_000
        h = sh.h_dim(2, l)
        draws = np.empty((n_draws, h, 2))
        for i in range(n_draws):
            draws[i] = sim.sample_coefficients(seq, l, rng)
        flat = draws.reshape(n_draws * h, 2)
        emp = flat.T @ flat / flat.shape[0]
        prods = flat[:, :, None] * flat[:, None, :]
        se = prods.std(axis=0, ddof=1) / math.sqrt(flat.shape[0])
        bhat = sim.coefficient_covariance(seq, l)
        assert np.all(np.abs(emp - bhat) < 4 * se)

    def test_cross_degree_orthogonality(self):
        seq = mq_sequence(4)
        rng = sim.make_generator(5)
        n_draws = 4000
        a2 = np.empty((n_draws, 2))
        a3 = np.empty((n_draws, 2))
        for i in range(n_draws):
            a2[i] = sim.sample_coefficients(seq, 2, rng)[0]
            a3[i] = sim.sample_coefficients(seq, 3, rng)[0]
        prods = a2[:, :, None] * a3[:, None, :]
        z = prods.mean(axis=0) / (prods.std(axis=0, ddof=1) / math.sqrt(n_draws))
        assert np.max(np.abs(z)) < 4.0

    def test_fourier_two_normals_per_frequency(self):
        seq = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 4, 3))
        a = sim.sample_coefficients(seq, 1, sim.make_generator(1))
        assert a.shape == (3, 2 * 3 + 1)


class TestSynthesizeField:
    def test_degree_zero_only_constant(self):
        seq = sb.SchoenbergSequence(2, [1.0])
        grid = sim.SampleGrid.uniform_random(2, 9, seed=1)
        f = sim.synthesize_field(seq, grid, seed=3)
        assert np.allclose(f.values, f.values[0])

    def test_determinism_and_stream_separation(self):
        seq = mq_sequence(10)
        grid = sim.SampleGrid.uniform_random(2, 5, seed=0)
        f1 = sim.synthesize_field(seq, grid, seed=9, stream=2)
        f2 = sim.synthesize_field(seq, grid, seed=9, stream=2)
        f3 = sim.synthesize_field(seq, grid, seed=9, stream=3)
        assert np.array_equal(f1.values, f2.values)
        assert not np.allclose(f1.values, f3.values)

    @pytest.mark.parametrize("seq, grid", [
        (mq_sequence(40), sim.SampleGrid.uniform_random(2, 150, seed=6)),
        (mq_sequence(30, d=1), sim.SampleGrid.equispaced_circle(90)),
        (md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 24, 6)),
         sim.SampleGrid.equiangular(9, 18)),
        (sb.SchoenbergSequence(2, 1.0 / (1.0 + np.arange(31.0)) ** 3),
         sim.SampleGrid.uniform_random(2, 120, seed=7)),
    ], ids=["matrix", "circle", "fourier", "scalar"])
    def test_streamed_fields_match_basis_reference_bitwise(self, seq, grid):
        streams = [4, 5, 6]
        fields = sim.synthesize_fields(seq, grid, streams, seed=8)
        assert [f.stream for f in fields] == streams
        for f in fields:
            assert np.array_equal(f.values, reference_field(seq, grid, 8, f.stream))
        short = sb.truncate_sequence(seq, 7)
        low = sim.synthesize_field(short, grid, seed=8, stream=2)
        assert np.array_equal(low.values, reference_field(short, grid, 8, 2))

    def test_field_groups_do_not_change_bits(self, monkeypatch):
        seq = mq_sequence(12)
        grid = sim.SampleGrid.uniform_random(2, 40, seed=3)
        together = sim.synthesize_fields(seq, grid, range(5), seed=2)
        monkeypatch.setattr(sim, "_BATCH_ELEMS", 2 * 40 * 2)   # two fields a group
        groups = sim.field_groups(seq, grid, range(5))
        assert groups == [[0, 1], [2, 3], [4]]
        apart = [f for g in groups for f in sim.synthesize_fields(seq, grid, g, seed=2)]
        assert [f.stream for f in apart] == list(range(5))
        assert all(np.array_equal(a.values, b.values) for a, b in zip(together, apart))
        assert sim.field_groups(seq, grid, []) == []

    def test_scale_factors_computed_once_per_group(self, monkeypatch):
        seq = mq_sequence(12)
        grid = sim.SampleGrid.uniform_random(2, 6, seed=3)
        roots = []
        real = sim.operator_sqrt
        monkeypatch.setattr(sim, "operator_sqrt",
                            lambda b: roots.append(b) or real(b))
        fields = sim.synthesize_fields(seq, grid, range(5), seed=2)
        assert len(roots) == 13
        assert all(np.array_equal(f.values, reference_field(seq, grid, 2, f.stream))
                   for f in fields)

    def test_dimension_mismatch_rejected(self):
        seq = mq_sequence(5)
        grid = sim.SampleGrid.equispaced_circle(4)
        with pytest.raises(ValueError, match="does not match"):
            sim.synthesize_field(seq, grid)

    def test_variance_matches_kernel_trace(self):
        seq = mq_sequence(15)
        grid = sim.SampleGrid.uniform_random(2, 6, seed=8)
        vals = sim.synthesize_ensemble(seq, grid, 5000, seed=21)
        sq = (vals ** 2).sum(axis=2)            # ||Z(x)||^2 per field/point
        emp = sq.mean()
        se = sq.mean(axis=1).std(ddof=1) / math.sqrt(vals.shape[0])
        analytic = float(np.sum(seq.trace_terms()))
        assert abs(emp - analytic) < 4 * se

    def test_ensemble_deterministic_and_batching_invariant(self, monkeypatch):
        # the fourier case runs in OpenBLAS's small-matrix dgemm regime
        # (M*N*K <= 1e6) at either budget, the matrix case in the regular
        # regime (M*N*K >= 32*12*3721)
        cases = [(md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 8, 4)),
                  4, 40, 500),
                 (mq_sequence(60), 12, 101, 150_000)]
        for seq, n_points, n_fields, budget in cases:
            grid = sim.SampleGrid.uniform_random(2, n_points, seed=2)
            a = sim.synthesize_ensemble(seq, grid, n_fields, seed=5, stream=1)
            b = sim.synthesize_ensemble(seq, grid, n_fields, seed=5, stream=1)
            assert np.array_equal(a, b)
            with monkeypatch.context() as m:
                m.setattr(sim, "_BATCH_ELEMS", budget)  # force many small batches
                c = sim.synthesize_ensemble(seq, grid, n_fields, seed=5, stream=1)
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("n_fields, field_elems", [
        (1, 10), (7, 10**9), (2000, 80802), (777, 80802), (400, 139425), (5, 1)])
    def test_batch_partition_balanced_and_bounded(self, n_fields, field_elems):
        sizes = sim._batch_sizes(n_fields, field_elems)
        assert sum(sizes) == n_fields
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
        assert max(sizes) == 1 or max(sizes) * field_elems <= sim._BATCH_ELEMS

    @pytest.mark.parametrize("seq, n_points, n_fields", [
        (mq_sequence(60, alpha=(0.5, 0.5, 0.45)), 3, 1201),
        (md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 30, 30)), 4, 400),
    ], ids=["matrix", "fourier"])
    def test_ensemble_matches_reference_bitwise(self, seq, n_points, n_fields):
        grid = sim.SampleGrid.uniform_random(2, n_points, seed=11)
        H = sh.harmonic_count(seq.d, seq.l_max)
        sizes = sim._batch_sizes(n_fields, H * sim.unfolded_dim(seq))
        assert len(set(sizes)) == 2  # several batches that split unevenly
        got = sim.synthesize_ensemble(seq, grid, n_fields, seed=3, stream=2)
        with one_blas_thread():   # the thread count the ensemble contracts at
            want = reference_ensemble(seq, grid, n_fields, seed=3, stream=2)
        assert np.array_equal(got, want)

    def test_truncation_monotonicity(self):
        # added degrees contribute nonnegative variance
        seq = mq_sequence(30)
        grid = sim.SampleGrid.uniform_random(2, 4, seed=4)
        v10 = sim.synthesize_ensemble(sb.truncate_sequence(seq, 10), grid, 4000, seed=6)
        v30 = sim.synthesize_ensemble(sb.truncate_sequence(seq, 30), grid, 4000, seed=6)
        m10 = (v10 ** 2).sum(axis=2).mean()
        m30 = (v30 ** 2).sum(axis=2).mean()
        analytic = float(np.sum(seq.trace_terms()))
        sq30 = (v30 ** 2).sum(axis=2).mean(axis=1)
        se = sq30.std(ddof=1) / math.sqrt(4000)
        assert m10 <= m30 + 4 * se
        assert m30 <= analytic + 4 * se

    def test_circle_field_covariance(self):
        # d = 1: scalar sequence, empirical covariance against the
        # Chebyshev-basis kernel at a few angles
        values = (1.0, 0.6, 0.3, 0.1)
        seq = sb.SchoenbergSequence(1, values)
        grid = sim.SampleGrid.equispaced_circle(8)
        vals = sim.synthesize_ensemble(seq, grid, 6000, seed=44)
        kernel = sb.IsotropicKernel(seq)
        for j in (0, 1, 3, 4):
            t = float(np.clip(grid.points[0] @ grid.points[j], -1, 1))
            prod = vals[:, 0, 0] * vals[:, j, 0]
            se = prod.std(ddof=1) / math.sqrt(prod.shape[0])
            assert abs(prod.mean() - float(kernel(t))) < 4 * se

    def test_gaussianity_of_projections(self):
        # <Z(x), u> must pass an Anderson-Darling normality check
        seq = mq_sequence(12)
        grid = sim.SampleGrid.from_points(2, [[0.0, 0.0, 1.0]])
        vals = sim.synthesize_ensemble(seq, grid, 5000, seed=31)
        u = np.array([0.7, -0.3])
        proj = vals[:, 0, :] @ u
        res = stats.anderson(proj, dist="norm", method="interpolate")
        assert res.pvalue > 0.01

    def test_isotropy_chi2_consistency(self):
        # pairs at equal geodesic angle estimate one covariance value
        seq = mq_sequence(12)
        theta = math.pi / 5
        ref = np.array([0.0, 0.0, 1.0])
        pts = [ref, [math.sin(theta), 0.0, math.cos(theta)]]
        # rotate the same configuration to three other positions
        rng = np.random.default_rng(3)
        for _ in range(3):
            q, _r = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            pts.extend([q @ pts[0], q @ pts[1]])
        grid = sim.SampleGrid.from_points(2, np.array(pts))
        vals = sim.synthesize_ensemble(seq, grid, 6000, seed=17)
        ests, ses = [], []
        for g in range(4):
            prod = vals[:, 2 * g, 0] * vals[:, 2 * g + 1, 0]
            ests.append(prod.mean())
            ses.append(prod.std(ddof=1) / math.sqrt(prod.shape[0]))
        ests = np.array(ests)
        ses = np.array(ses)
        wmean = np.sum(ests / ses ** 2) / np.sum(1.0 / ses ** 2)
        chi2 = float(np.sum(((ests - wmean) / ses) ** 2))
        assert chi2 < stats.chi2.ppf(0.999, df=3)


ENSEMBLE_DIGEST_SCRIPT = """
import hashlib, json, sys
import numpy as np
from spherefield import harmonics as sh, models as md, schoenberg as sb, simulate as sim

def mq(l_max, d=2):
    return md.build_sequence(md.MultiquadraticParams(
        d=d, sigma=(1.0, 1.0), rho12=0.4, alpha=(0.5, 0.5, 0.3)), l_max)

scalar = sb.SchoenbergSequence(2, 1.0 / (1.0 + np.arange(16.0)) ** 3)
fourier = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 12, 3))
# name -> (sequence, points, fields, fields per batch)
cases = {"matrix_2_2_1": (mq(20), 3, 5, 2), "matrix_ones": (mq(20), 3, 4, 1),
         "fourier_2_2_1": (fourier, 4, 5, 2), "scalar_3_2_2": (scalar, 2, 7, 3),
         "d1_3_2_2": (mq(40, d=1), 5, 7, 3),
         # batches [17, 17, 16] drawn through quarter-budget slots of 5 or 6 fields
         "matrix_ring": (mq(20), 3, 50, 24), "fourier_ring": (fourier, 4, 50, 24),
         "one_point_ring": (mq(20), 1, 50, 24)}
sys.setswitchinterval(1e-6)   # interleave the draw thread and the caller often
out = {}
for name, (seq, n_points, n_fields, per_batch) in cases.items():
    grid = sim.SampleGrid.uniform_random(seq.d, n_points, seed=8)
    field_elems = sh.harmonic_count(seq.d, seq.l_max) * sim.unfolded_dim(seq)
    sim._BATCH_ELEMS = per_batch * field_elems
    vals = sim.synthesize_ensemble(seq, grid, n_fields, seed=12, stream=3)
    out[name] = [sim._batch_sizes(n_fields, field_elems),
                 hashlib.sha256(vals.tobytes()).hexdigest()]
print(json.dumps(out))
"""

# batch sizes and sha256 of the values, recorded with the draw, scale and
# contraction of each batch run one after the other, at one BLAS thread
GOLDEN_ENSEMBLE = {
    "matrix_2_2_1": [[2, 2, 1],
                     "33a39df1f3f53614b49e2902fc4abb0323e376d4340785e2df2910df21a4c386"],
    "matrix_ones": [[1, 1, 1, 1],
                    "916093200bc37b2eef32861a96c16b0fda1fe64fffa80b3946cfdd886f1c1032"],
    "fourier_2_2_1": [[2, 2, 1],
                      "9baac4b5f88d6937ea5c92dc59e674a4bafe69b7419ad131d93f74e9539c9da4"],
    "scalar_3_2_2": [[3, 2, 2],
                     "b1e2ba3051aefaac1daeb2aabcc89d8c57162b4e84b42efa5d0fe22a1fa0cc30"],
    "d1_3_2_2": [[3, 2, 2],
                 "4b47a083a9c10d5c88299f4f954f94ed850b5db12259a4edb57cf7f39a7d5a24"],
    "matrix_ring": [[17, 17, 16],
                    "9971937fb42421b5fcad3645e22df899e4c5d6d2522067173567e5dcf612afca"],
    "fourier_ring": [[17, 17, 16],
                     "6af40b56bc8e86d65d4f2631c67c81ed0a0a2bd6f06fabe6b3775c58dd32c92f"],
    "one_point_ring": [[17, 17, 16],
                       "59a42793c220f20a8eef5216b2caa27a57a7439bc3817b2b7b69c16aa13f7aa4"],
}


def blas_threads():
    api = _blas._thread_api()
    return None if api is None else api[0]()


@pytest.fixture
def two_blas_threads():
    """Run at two OpenBLAS threads, so that a pin left behind shows."""
    with openblas_threads(2):
        yield


def ensemble_with_batches_of_two(monkeypatch):
    """synthesize_ensemble of 5 fields in batches [2, 2, 1]."""
    seq = mq_sequence(20)
    grid = sim.SampleGrid.uniform_random(2, 3, seed=1)
    monkeypatch.setattr(sim, "_BATCH_ELEMS", 2 * sh.harmonic_count(2, 20) * 2)
    return lambda: sim.synthesize_ensemble(seq, grid, 5, seed=1)


class TestOneBlasThread:
    def test_overlapping_threads_share_the_pin(self, two_blas_threads):
        # A enters, B enters, A exits, B exits: both run at one thread
        # throughout, and the count they found comes back after both
        if _blas._thread_api() is None:
            pytest.skip("numpy's OpenBLAS thread API is not available")
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with one_blas_thread():
                a_in.set()
                assert b_in.wait(30)
                seen["a"] = blas_threads()
            a_out.set()

        def second():
            assert a_in.wait(30)
            with one_blas_thread():
                b_in.set()
                seen["b"] = blas_threads()
                assert a_out.wait(30)
                seen["b after a"] = blas_threads()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a": 1, "b": 1, "b after a": 1}
        assert blas_threads() == 2

    def test_many_threads_keep_the_count(self, two_blas_threads):
        # more threads than cores entering and leaving at a short switch
        # interval: a lost update of the shared depth would leave a block
        # above one thread or the process at the wrong count afterwards
        if _blas._thread_api() is None:
            pytest.skip("numpy's OpenBLAS thread API is not available")
        inside = []

        def enter_often():
            for _ in range(200):
                with one_blas_thread():
                    time.sleep(0)     # let another thread in
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_often) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside == [1] * 1600
        assert blas_threads() == 2

    def test_without_the_thread_api_the_block_just_runs(self, monkeypatch):
        monkeypatch.setattr(_blas, "_thread_api", lambda: None)
        ran = []
        with one_blas_thread():
            ran.append(_blas._depth)
        assert ran == [0] and _blas._depth == 0

    def test_no_thread_api_where_no_library_loads(self, monkeypatch):
        missing = os.path.join(os.path.dirname(__file__), "libscipy_openblas64_none.so")
        monkeypatch.setattr(_blas.glob, "glob", lambda pattern: [missing])
        assert _blas._thread_api.__wrapped__() is None


class TestEnsembleThreads:
    @pytest.mark.slow
    @pytest.mark.parametrize("openblas_threads", ["1", "2"])
    def test_overlapped_ensemble_keeps_bits(self, openblas_threads):
        # the cases where a draw may not start early: one-field batches,
        # halves of unequal size, the diagonal variants' in-place scaling
        env = dict(os.environ, OPENBLAS_NUM_THREADS=openblas_threads,
                   PYTHONPATH=str(pathlib.Path(sim.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", ENSEMBLE_DIGEST_SCRIPT],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == GOLDEN_ENSEMBLE

    def test_failed_draw_leaves_nothing_running(self, monkeypatch, two_blas_threads):
        seen = []

        def on_draw(call):
            seen.append(blas_threads())
            if call == 2:
                raise MemoryError("Unable to allocate 12.0 GiB for an array")

        ensemble = ensemble_with_batches_of_two(monkeypatch)
        patch_draws(monkeypatch, on_draw)
        threads, blas = threading.active_count(), blas_threads()
        with pytest.raises(MemoryError, match="12.0 GiB"):
            ensemble()
        assert threading.active_count() == threads
        assert blas_threads() == blas
        assert seen == [None if blas is None else 1] * 2

    def test_failed_contraction_joins_the_draw_in_flight(self, monkeypatch,
                                                         two_blas_threads):
        started, released = threading.Event(), threading.Event()
        finished, in_flight = [], []

        def on_draw(call):
            if call == 3:      # the first half of the second batch
                started.set()
                assert released.wait(30)
                time.sleep(0.3)
                finished.append(call)

        class Basis:
            @property
            def T(self):   # the contraction of the first batch
                assert started.wait(30)
                in_flight.append(not finished)
                released.set()
                raise RuntimeError("contraction failed")

        ensemble = ensemble_with_batches_of_two(monkeypatch)
        patch_draws(monkeypatch, on_draw)
        monkeypatch.setattr(sim, "harmonic_basis", lambda d, l_max, points: Basis())
        threads, blas = threading.active_count(), blas_threads()
        with pytest.raises(RuntimeError, match="contraction failed"):
            ensemble()
        assert in_flight == [True] and finished == [3]
        assert threading.active_count() == threads
        assert blas_threads() == blas


class TestEnsembleRing:
    def test_peak_memory_is_one_batch_and_two_slots(self, monkeypatch):
        seq = mq_sequence(80)
        grid = sim.SampleGrid.uniform_random(2, 3, seed=1)
        field = sh.harmonic_count(2, 80) * 2                 # elements
        monkeypatch.setattr(sim, "_BATCH_ELEMS", 48 * field)  # batches of 48 fields
        tracemalloc.start()
        try:
            sim.synthesize_ensemble(seq, grid, 96, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch, slots = 48 * field * 8, 2 * 24 * field * 8     # slots of half a batch
        out, basis = 96 * 3 * 2 * 8, 3 * field // 2 * 8
        assert peak <= batch + slots + out + basis + batch // 20

    def test_slots_hold_a_quarter_of_the_budget(self, monkeypatch):
        # batches [17, 17, 16] of a 20-field budget: half a batch is 9
        # fields, more than the 5 of a quarter budget, so the ring is two
        # slots of 5 fields
        seq = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 60, 8))
        grid = sim.SampleGrid.uniform_random(2, 4, seed=3)
        field = sh.harmonic_count(2, 60) * sim.unfolded_dim(seq)
        monkeypatch.setattr(sim, "_BATCH_ELEMS", 20 * field)
        assert sim._batch_sizes(50, field) == [17, 17, 16]
        _, peak = traced_peak(sim.synthesize_ensemble, seq, grid, 50, seed=4)
        batch, slots = 17 * field * 8, 2 * 5 * field * 8
        out, basis = 50 * 4 * 17 * 8, 4 * sh.harmonic_count(2, 60) * 8
        assert peak <= batch + slots + out + basis + batch // 20


class UnitVectors:
    """A stand-in generator whose normals, in draw order, are the unit
    vectors e_first, e_first+1, ... of R^size, one vector per field."""

    def __init__(self, size, first):
        self.size = size
        self.drawn = first * size

    def standard_normal(self, shape, out=None):
        pos = self.drawn + np.arange(math.prod(shape))
        self.drawn += pos.size
        z = (pos % self.size == pos // self.size).astype(float).reshape(shape)
        if out is None:
            return z
        out[...] = z
        return out


# the fourier model has dim = 2 K + 1 = 5; the d = 1 models run on the circle
EXACT_MODELS = {
    "matrix": lambda: mq_sequence(4),
    "fourier": lambda: md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 4, 2)),
    "scalar": lambda: sb.SchoenbergSequence(2, 1.0 / (1.0 + np.arange(5.0)) ** 3),
    "matrix_d1": lambda: mq_sequence(6, d=1),
    "scalar_d1": lambda: sb.SchoenbergSequence(1, 0.7 ** np.arange(7.0)),
}


class TestExactCovariance:
    """The fields are linear in the draws, so with the unit vectors of
    R^(H*dim) as draws, one per field, ``sum_f out[f, i] (x) out[f, j]`` is
    exactly the covariance the code gives points i and j: it must be the
    kernel ``R(x_i . x_j)`` (the unfolded diagonal of the folded gamma for
    the fourier variant), up to rounding."""

    @staticmethod
    def check(seq, grid, values):
        kernel = sb.IsotropicKernel(seq)
        if seq.variant == sb.FOURIER_DIAGONAL:
            idx = sb.unfolded_index(seq.dim)
            want = lambda t: np.diag(kernel(t)[idx])
        else:
            want = lambda t: np.atleast_2d(kernel(t))
        # the largest entry of sum_l |b_l| C_l(1) sets the rounding scale;
        # errors up to 4.1 eps times it were seen
        scale = np.max(sb.IsotropicKernel(
            sb.SchoenbergSequence(seq.d, np.abs(seq.coeffs)))(1.0))
        tol = 16 * np.finfo(float).eps * scale
        for i in range(grid.n_points):
            for j in range(grid.n_points):
                cov = np.einsum("fa,fb->ab", values[:, i], values[:, j])
                t = float(np.clip(grid.points[i] @ grid.points[j], -1.0, 1.0))
                assert np.max(np.abs(cov - want(t))) <= tol, (i, j)

    @pytest.mark.parametrize("n_points", [1, 4])
    @pytest.mark.parametrize("model", list(EXACT_MODELS))
    def test_ensemble_covariance_is_the_kernel(self, monkeypatch, model, n_points):
        seq = EXACT_MODELS[model]()
        grid = sim.SampleGrid.uniform_random(seq.d, n_points, seed=6)
        size = sh.harmonic_count(seq.d, seq.l_max) * sim.unfolded_dim(seq)
        monkeypatch.setattr(sim, "make_generator",
                            lambda seed, stream=0: UnitVectors(size, stream))
        # one-field batches; then balanced batches of 7 and 6 fields (the
        # fields number H * dim, at least 13 here), drawn one field a slot
        # (a quarter of the budget is 1.75 fields)
        for per_batch in (1, 7):
            monkeypatch.setattr(sim, "_BATCH_ELEMS", per_batch * size)
            sizes = sim._batch_sizes(size, size)
            assert max(sizes) == per_batch and len(sizes) > 1
            self.check(seq, grid, sim.synthesize_ensemble(seq, grid, size))

    @staticmethod
    def responses(monkeypatch, seq, grid, size):
        """Field f of a one-field ensemble whose one draw is unit vector f:
        the response to draw f alone."""
        def alone(f):
            monkeypatch.setattr(sim, "make_generator",
                                lambda seed, stream=0: UnitVectors(size, f))
            return sim.synthesize_ensemble(seq, grid, 1)[0]
        return np.stack([alone(f) for f in range(size)])

    @pytest.mark.parametrize("model", list(EXACT_MODELS))
    def test_fields_keep_the_order_of_their_draws(self, monkeypatch, model):
        # a sum over fields cannot see fields permuted; here field f of an
        # ensemble, in one-field and in 7/6-field batches, and field f of
        # synthesize_fields must each be the response to draw f
        seq = EXACT_MODELS[model]()
        grid = sim.SampleGrid.uniform_random(seq.d, 4, seed=6)
        size = sh.harmonic_count(seq.d, seq.l_max) * sim.unfolded_dim(seq)
        want = self.responses(monkeypatch, seq, grid, size)
        tol = 16 * np.finfo(float).eps * np.max(np.abs(want))
        monkeypatch.setattr(sim, "make_generator",
                            lambda seed, stream=0: UnitVectors(size, stream))
        for per_batch in (1, 7):
            monkeypatch.setattr(sim, "_BATCH_ELEMS", per_batch * size)
            got = sim.synthesize_ensemble(seq, grid, size)
            assert np.max(np.abs(got - want)) <= tol, per_batch
        fields = sim.synthesize_fields(seq, grid, range(size))
        got = np.stack([f.values for f in fields])
        assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("model", list(EXACT_MODELS))
    def test_per_field_covariance_is_the_kernel(self, monkeypatch, model):
        # synthesize_fields draws field s from stream s alone: unit vector s
        seq = EXACT_MODELS[model]()
        grid = sim.SampleGrid.uniform_random(seq.d, 3, seed=6)
        size = sh.harmonic_count(seq.d, seq.l_max) * sim.unfolded_dim(seq)
        monkeypatch.setattr(sim, "make_generator",
                            lambda seed, stream=0: UnitVectors(size, stream))
        fields = sim.synthesize_fields(seq, grid, range(size))
        self.check(seq, grid, np.stack([f.values for f in fields]))


class TestEmpiricalCovariance:
    def test_zero_samples_give_zero(self):
        seq = sb.SchoenbergSequence(2, [0.0])
        grid = sim.SampleGrid.uniform_random(2, 3, seed=0)
        vals = sim.synthesize_ensemble(seq, grid, 4, seed=0)
        est, se = sim.empirical_covariance(vals, 0, 1)
        assert np.all(est == 0.0) and np.all(se == 0.0)

    def test_variance_identity_scalar(self):
        values = (1.0, 0.5, 0.25)
        seq = sb.SchoenbergSequence(2, values)
        grid = sim.SampleGrid.uniform_random(2, 2, seed=5)
        vals = sim.synthesize_ensemble(seq, grid, 6000, seed=9)
        est, se = sim.empirical_covariance(vals, 0, 0)
        assert abs(est[0, 0] - 1.75) < 4 * se[0, 0]

    def test_requires_two_samples(self):
        seq = mq_sequence(4)
        grid = sim.SampleGrid.uniform_random(2, 3, seed=1)
        with pytest.raises(ValueError, match="at least 2"):
            sim.empirical_covariance(sim.synthesize_ensemble(seq, grid, 1), 0, 0)


class TestMonteCarloKernelCheck:
    def test_self_consistency_passes(self):
        seq = mq_sequence(15)
        report = sim.monte_carlo_kernel_check(
            seq, theta_pairs(np.linspace(0, math.pi, 6)), 3000, seed=11)
        assert report["passed"] and report["z_max"] < 4.0

    def test_inflated_scale_fails(self):
        seq = mq_sequence(15)
        wrong = mq_sequence(15, sigma=(1.2, 1.2))
        report = sim.monte_carlo_kernel_check(
            seq, theta_pairs(np.linspace(0, math.pi, 6)), 3000, seed=11,
            analytic_seq=wrong)
        assert not report["passed"]

    def test_zero_sequence_exact_pass(self):
        seq = sb.SchoenbergSequence(2, np.zeros(4))
        report = sim.monte_carlo_kernel_check(
            seq, theta_pairs([0.0, 1.0]), 500, seed=0)
        assert report["passed"] and report["z_max"] == 0.0

    def test_fourier_variant_folded_entries(self):
        seq = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 10, 5))
        report = sim.monte_carlo_kernel_check(
            seq, theta_pairs([0.0, math.pi / 3]), 2000, seed=13)
        assert report["passed"]
        assert report["pairs"][0]["labels"] == [f"gamma[{k}]" for k in range(6)]

    def test_report_schema(self):
        seq = mq_sequence(8)
        report = sim.monte_carlo_kernel_check(
            seq, theta_pairs([0.0, 2.0]), 500, seed=2)
        validate_schema("check_report.schema.json", report)

    def test_infinite_z_written_as_null(self):
        # zero samples against a nonzero kernel: se = 0, so every z is inf
        seq = sb.SchoenbergSequence(2, np.zeros(4))
        report = sim.monte_carlo_kernel_check(
            seq, theta_pairs([0.0, 2.0]), 500, seed=2,
            analytic_seq=sb.SchoenbergSequence(2, np.ones(4)))
        assert report["z_max"] is None and not report["passed"]
        obj = json.loads(json.dumps(report, allow_nan=False))
        validate_schema("check_report.schema.json", obj)
        assert obj["z_max"] is None and obj["pairs"][0]["z"] == [None]
        assert obj["pairs"][0]["z_max"] is None

    def test_analytic_side_truncated_to_sampled_degrees(self):
        seq = mq_sequence(6)
        pairs = theta_pairs([0.0, 1.0])
        same = sim.monte_carlo_kernel_check(seq, pairs, 200, seed=5)
        longer = sim.monte_carlo_kernel_check(seq, pairs, 200, seed=5,
                                              analytic_seq=mq_sequence(9))
        assert longer == same
        with pytest.raises(ValueError, match=r"l_max must lie in \[0, 4\], got 6"):
            sim.monte_carlo_kernel_check(seq, pairs, 200, analytic_seq=mq_sequence(4))

    def test_bad_pair_shape_rejected(self):
        seq = mq_sequence(8)
        with pytest.raises(ValueError, match="shape"):
            sim.monte_carlo_kernel_check(seq, np.zeros((3, 3)), 100)


class TestFunctionReconstruction:
    def test_pointwise_variance_is_trace(self):
        # stationarity on [0,1]: E f(tau)^2 equals the operator trace
        seq = md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 8, 6))
        grid = sim.SampleGrid.from_points(2, [[0.0, 0.0, 1.0]])
        vals = sim.synthesize_ensemble(seq, grid, 6000, seed=19)
        f = np.stack([fourier_function_values(vals[i, 0], [0.2, 0.6])
                      for i in range(vals.shape[0])])
        analytic = float(np.sum(seq.trace_terms()))
        emp = (f ** 2).mean(axis=0)
        se = (f ** 2).std(axis=0, ddof=1) / math.sqrt(f.shape[0])
        assert np.all(np.abs(emp - analytic) < 4 * se)


class TestExports:
    def test_csv_roundtrip(self, tmp_path):
        seq = mq_sequence(6)
        grid = sim.SampleGrid.uniform_random(2, 4, seed=3)
        sample = sim.synthesize_field(seq, grid, seed=1)
        path = tmp_path / "field.csv"
        sim.write_field_csv(sample, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x0,x1,x2,v0,v1"
        back = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        assert np.array_equal(back[:, :3], grid.points)
        assert np.array_equal(back[:, 3:], sample.values)

    def test_json_export(self, tmp_path):
        import json
        seq = mq_sequence(6)
        grid = sim.SampleGrid.uniform_random(2, 3, seed=2)
        sample = sim.synthesize_field(seq, grid, seed=4)
        path = tmp_path / "field.json"
        sim.write_field_json(sample, path)
        obj = json.loads(path.read_text())
        assert obj["seed"] == 4 and obj["L_max"] == 6
        assert np.allclose(obj["values"], sample.values)


@pytest.mark.parametrize("call, message", [
    (lambda seq, g: sim.sample_coefficients(seq, 4, sim.make_generator(0, 0)),
     "degree must lie in [0, 3], got 4"),
    (lambda seq, g: sim.synthesize_ensemble(seq, sim.SampleGrid.from_points(1, [[1.0, 0.0]]), 2),
     "grid dimension 1 does not match sequence d=2"),
    (lambda seq, g: sim.synthesize_ensemble(seq, g, 0), "n_fields must be >= 1, got 0"),
    (lambda seq, g: sim.monte_carlo_kernel_check(seq, [[[0, 0, 1], [0, 1, 0]]], 1),
     "n_samples must be >= 2, got 1"),
], ids=["degree_above_l_max", "ensemble_grid_d", "ensemble_no_fields", "one_sample"])
def test_argument_checks(call, message):
    grid = sim.SampleGrid.from_points(2, [[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError) as info:
        call(mq_sequence(l_max=3), grid)
    assert str(info.value) == message
