"""Sampling isotropic Hilbert-valued Gaussian fields on S^1 and S^2.

Fields are synthesized by truncated harmonic expansion

    Z(x) = sum_{l <= L} sum_{m=1}^{h(l)} a_{l,m} Y_{l,m}(x),

where the ``a_{l,m}`` are independent zero-mean Gaussians with covariance
``bhat_l = b_l * omega_d * C_l(1) / h(l)``.  The rescaling converts
kernel-series coefficients to per-harmonic covariances under orthonormal
harmonics, so sampled fields reproduce ``R(t) = sum b_l C_l(t)`` exactly
(truncated); Monte Carlo checks therefore compare against the analytic
kernel truncated at the same degree, with the series tail bound reported
separately.

Randomness contract: draws come from numpy's Philox counter-based generator
keyed with the 128-bit key ``(seed, stream)``; distinct stream ids give
independent streams and identical ``(seed, stream)`` reproduce outputs
bit-for-bit.  Gaussians use numpy's ziggurat ``standard_normal``.  A single
field draws, for each degree ``l`` ascending, a row-major block of shape
``(h(l), dim)``; an ensemble draws ``(n_fields, H, dim)`` with fields as the
leading axis.  PSD coefficients that are not strictly positive are sampled
through the PSD square root (zero modes draw no variance); sampling never
needs inverses.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    addition_constant,
    check_points,
    degree_slices,
    h_dim,
    harmonic_basis,
    harmonic_count,
    iter_degree_blocks,
)
from .schoenberg import (
    MATRIX,
    IsotropicKernel,
    SchoenbergSequence,
    entry_labels,
    operator_sqrt,
    truncate_sequence,
)

_BATCH_ELEMS = 4_000_000   # float64 elements per ensemble batch buffer or field group
_CSV_CHUNK_ROWS = 256      # rows converted to Python floats at a time


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the (seed, stream) key (see module docstring)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleGrid:
    """Evaluation points on S^d (d = 1 or 2).

    The grid keeps the largest harmonic basis it has been asked for (see
    :meth:`basis`), n_points * harmonic_count(d, L) * 8 bytes, for as long
    as it lives.  Only :func:`synthesize_ensemble` asks for one.
    """

    d: int
    points: np.ndarray
    _basis: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(
                f"field synthesis is restricted to d in {{1, 2}}; got d = {self.d}")
        pts = check_points(self.d, self.points)
        if pts.shape[0] == 0:
            raise ValueError("grid must contain at least one point")
        pts = np.array(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def basis(self, l_max: int) -> np.ndarray:
        """Read-only :func:`harmonic_basis` of degree <= l_max at the points.

        Built on first use.  Only the largest basis built is kept; a lower
        degree gets a column prefix of it, which is exact because the basis
        is degree-major and each degree's values do not depend on l_max.
        """
        h = harmonic_count(self.d, l_max)
        if self._basis is None or self._basis.shape[1] < h:
            basis = harmonic_basis(self.d, l_max, self.points)
            basis.setflags(write=False)
            object.__setattr__(self, "_basis", basis)
        return self._basis[:, :h]

    @classmethod
    def from_points(cls, d: int, points) -> "SampleGrid":
        return cls(d=d, points=np.asarray(points, dtype=float))

    @classmethod
    def uniform_random(cls, d: int, n: int, seed: int, stream: int = 0) -> "SampleGrid":
        """n points drawn uniformly (normalized Gaussians), reproducible."""
        rng = make_generator(seed, stream)
        v = rng.standard_normal((n, d + 1))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return cls(d=d, points=v)

    @classmethod
    def equiangular(cls, n_polar: int, n_azimuth: int) -> "SampleGrid":
        """Latitude-longitude product grid on S^2 (pole-free midpoints)."""
        theta = (np.arange(n_polar) + 0.5) * math.pi / n_polar
        phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        pts = np.column_stack([
            (np.sin(tt) * np.cos(pp)).ravel(),
            (np.sin(tt) * np.sin(pp)).ravel(),
            np.cos(tt).ravel(),
        ])
        return cls(d=2, points=pts)

    @classmethod
    def equispaced_circle(cls, n: int) -> "SampleGrid":
        phi = 2.0 * math.pi * np.arange(n) / n
        return cls(d=1, points=np.column_stack([np.cos(phi), np.sin(phi)]))

    @classmethod
    def from_spec(cls, spec: dict) -> "SampleGrid":
        kind = spec.get("kind")
        if kind == "points":
            return cls.from_points(int(spec["d"]), spec["points"])
        if kind == "uniform":
            return cls.uniform_random(int(spec["d"]), int(spec["n"]),
                                      int(spec.get("seed", 0)),
                                      int(spec.get("stream", 0)))
        if kind == "equiangular":
            return cls.equiangular(int(spec["n_polar"]), int(spec["n_azimuth"]))
        if kind == "equispaced":
            return cls.equispaced_circle(int(spec["n"]))
        raise ValueError(f"unknown grid kind {kind!r}")


@dataclass(frozen=True)
class FieldSample:
    """One realization on a grid; values are (n_points, dim) coefficient vectors."""

    grid: SampleGrid
    values: np.ndarray
    l_max: int
    seed: int
    stream: int


def unfolded_dim(seq: SchoenbergSequence) -> int:
    """Length of materialized coefficient vectors: p for the matrix variant,
    2*K_max + 1 for the fourier variant (cos/sin pairs), 1 for scalars (one
    folded entry)."""
    if seq.variant == MATRIX:
        return seq.dim
    return 2 * seq.dim - 1


def _unfold_fourier(folded: np.ndarray) -> np.ndarray:
    """Repeat gamma_k onto the (cos, sin) coordinate pair for k >= 1 (a single
    entry, as for scalars, is returned as is)."""
    k_max = folded.shape[-1] - 1
    out = np.empty(folded.shape[:-1] + (2 * k_max + 1,))
    out[..., 0] = folded[..., 0]
    out[..., 1::2] = folded[..., 1:]
    out[..., 2::2] = folded[..., 1:]
    return out


def coefficient_covariance(seq: SchoenbergSequence, l: int) -> np.ndarray:
    """Covariance ``bhat_l = b_l * omega_d C_l(1) / h(l)`` of the degree-l
    harmonic coefficients, in the materialized coefficient space."""
    w = 1.0 / addition_constant(seq.d, l)
    data = seq.coeffs[l].data
    if seq.variant == MATRIX:
        return data * w
    return _unfold_fourier(np.atleast_1d(data) * w)


def _scale_factor(seq: SchoenbergSequence, l: int) -> np.ndarray:
    """Square root of bhat_l, ready to scale standard normals: the symmetric
    PSD root for the matrix variant (applied as ``z @ root``), entrywise
    roots otherwise (applied as ``z * root``)."""
    if seq.variant == MATRIX:
        w = 1.0 / addition_constant(seq.d, l)
        return operator_sqrt(seq.coeffs[l].scaled(w)).data
    return np.sqrt(coefficient_covariance(seq, l))


def _check_l_max(seq: SchoenbergSequence, l_max) -> int:
    if l_max is None:
        return seq.l_max
    if not 0 <= l_max <= seq.l_max:
        raise ValueError(f"l_max must lie in [0, {seq.l_max}], got {l_max}")
    return l_max


def sample_coefficients(seq: SchoenbergSequence, l: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw the ``h(l)`` degree-l coefficient vectors, shape (h(l), dim).

    Zero-mean Gaussian with covariance ``bhat_l``; the matrix variant goes
    through the symmetric PSD square root, the diagonal variants scale
    independent normals by sqrt(gamma-hat) entrywise (two normals per folded
    fourier frequency k >= 1).
    """
    if not 0 <= l <= seq.l_max:
        raise ValueError(f"degree must lie in [0, {seq.l_max}], got {l}")
    z = rng.standard_normal((h_dim(seq.d, l), unfolded_dim(seq)))
    root = _scale_factor(seq, l)
    return z @ root if seq.variant == MATRIX else z * root[None, :]


def synthesize_field(seq: SchoenbergSequence, grid: SampleGrid,
                     l_max: int | None = None, seed: int = 0,
                     stream: int = 0) -> FieldSample:
    """Synthesize one field realization; deterministic given (seed, stream)."""
    return synthesize_fields(seq, grid, [stream], l_max=l_max, seed=seed)[0]


def synthesize_fields(seq: SchoenbergSequence, grid: SampleGrid, streams,
                      l_max: int | None = None, seed: int = 0) -> list:
    """Synthesize one field realization per stream id in ``streams``.

    Field ``i`` is :func:`synthesize_field` of ``(seed, streams[i])``, bit
    for bit: it draws from its own generator, degree by degree, and each
    degree adds ``block @ a`` to it alone, so how fields are grouped does
    not change a bit.  The group walks the harmonic recurrence once
    (:func:`iter_degree_blocks`) and never builds the ``(n_points, H)``
    basis; its values, ``len(streams) * n_points * dim`` floats, are views
    of one array (:func:`field_groups` bounds them).
    """
    if grid.d != seq.d:
        raise ValueError(f"grid dimension {grid.d} does not match sequence d={seq.d}")
    L = _check_l_max(seq, l_max)
    rngs = [make_generator(seed, stream) for stream in streams]
    values = np.zeros((len(rngs), grid.n_points, unfolded_dim(seq)))
    for l, block in enumerate(iter_degree_blocks(seq.d, L, grid.points)):
        for v, rng in zip(values, rngs):
            v += block @ sample_coefficients(seq, l, rng)   # (h(l), dim)
    return [FieldSample(grid=grid, values=v, l_max=L, seed=seed, stream=stream)
            for v, stream in zip(values, streams)]


def field_groups(seq: SchoenbergSequence, grid: SampleGrid, streams) -> list:
    """Split ``streams`` into consecutive groups for :func:`synthesize_fields`
    of at most ``_BATCH_ELEMS`` value elements each (at least one field)."""
    streams = list(streams)
    if not streams:
        return []
    it = iter(streams)
    sizes = _batch_sizes(len(streams), grid.n_points * unfolded_dim(seq))
    return [list(itertools.islice(it, nb)) for nb in sizes]


def _batch_sizes(n_fields: int, field_elems: int) -> list:
    """Balanced split of ``n_fields`` into batches of at most ``_BATCH_ELEMS``
    float64 elements (at least one field each); sizes differ by at most one."""
    per_batch = max(1, _BATCH_ELEMS // max(1, field_elems))
    n_batches = -(-n_fields // per_batch)
    small, n_large = divmod(n_fields, n_batches)
    return [small + 1] * n_large + [small] * (n_batches - n_large)


def synthesize_ensemble(seq: SchoenbergSequence, grid: SampleGrid, n_fields: int,
                        l_max: int | None = None, seed: int = 0,
                        stream: int = 0) -> np.ndarray:
    """Synthesize ``n_fields`` independent realizations from one stream.

    Returns values of shape (n_fields, n_points, dim).  Deterministic given
    (seed, stream); fields are batched internally without changing the draw
    sequence.

    Memory: two batch buffers (draws and their scaled, transposed copy) are
    allocated once per call, about 2 * ``_BATCH_ELEMS`` * 8 bytes whatever
    ``n_fields`` is, plus the output.  A field of more than ``_BATCH_ELEMS``
    elements (H * dim) is drawn alone into one buffer of its own size.
    Each degree's draws are scaled by that degree's factor alone (a matrix
    product, or an entrywise product for the diagonal variants).
    The batch partition is a pure function of ``(n_fields, H, dim)``,
    balanced so that sizes differ by at most one: BLAS picks its kernel, and
    so the rounding of the contraction, from the batch's shape, and a tiny
    remainder batch would round differently from the rest.
    """
    if grid.d != seq.d:
        raise ValueError(f"grid dimension {grid.d} does not match sequence d={seq.d}")
    if n_fields < 1:
        raise ValueError(f"n_fields must be >= 1, got {n_fields}")
    L = _check_l_max(seq, l_max)
    rng = make_generator(seed, stream)
    basis = grid.basis(L)                                # (npts, H)
    slices = degree_slices(seq.d, L)
    H = harmonic_count(seq.d, L)
    dim = unfolded_dim(seq)
    factors = [_scale_factor(seq, l) for l in range(L + 1)]
    scale = np.matmul if seq.variant == MATRIX else np.multiply

    sizes = _batch_sizes(n_fields, H * dim)
    z = np.empty((sizes[0], H, dim))                     # draws, in draw order
    # Scaled draws go to zt, laid out as the (nb*dim, H) rows of the
    # contraction.  A batch of one field is scaled in place and contracted as
    # z[0].T instead, through BLAS's transposed-operand kernel, which rounds
    # differently: this keeps one-field batches bit-identical to earlier
    # versions of this function, and they need no second buffer.  The
    # entrywise products of the diagonal variants are exact wherever they
    # are stored, so those are scaled in place too (contiguous inner loops)
    # and reach zt with one transposed copy; the matrix variant's products
    # are written straight into zt.
    zt = np.empty((sizes[0], dim, H)) if sizes[0] > 1 else None
    out = np.empty((n_fields, grid.n_points, dim))
    done = 0
    for nb in sizes:
        # the size is redundant with out=, but wrappers that count draws read it
        zb = rng.standard_normal((nb, H, dim), out=z[:nb])
        in_place = nb == 1 or seq.variant != MATRIX
        scaled = zb if in_place else zt[:nb].transpose(0, 2, 1)
        for l in range(L + 1):
            scale(zb[:, slices[l], :], factors[l], out=scaled[:, slices[l], :])
        if nb == 1:
            rows = zb[0].T
        else:
            if in_place:
                zt[:nb] = zb.transpose(0, 2, 1)
            rows = zt[:nb].reshape(nb * dim, H)
        vals = np.dot(rows, basis.T)                     # (nb*dim, npts)
        out[done:done + nb] = vals.reshape(nb, dim, -1).transpose(0, 2, 1)
        done += nb
    return out


def empirical_covariance(samples, i: int, j: int):
    """Entrywise mean and standard error of ``Z(x_i) (x) Z(x_j)`` over samples.

    ``samples`` is a list of FieldSample on a common grid (or an ensemble
    array).  Returns ``(estimate, se)``, both of shape (dim, dim).
    """
    if isinstance(samples, np.ndarray):
        values = samples
    else:
        samples = list(samples)
        if len(samples) < 2:
            raise ValueError("need at least 2 samples")
        g0 = samples[0].grid
        for s in samples[1:]:
            if s.grid.d != g0.d or not np.array_equal(s.grid.points, g0.points):
                raise ValueError("samples must share one grid")
        values = np.stack([s.values for s in samples])
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    prod = values[:, i, :, None] * values[:, j, None, :]
    est = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / math.sqrt(n)
    return est, se


# ---------------------------------------------------------------------------
# Monte Carlo kernel checks
# ---------------------------------------------------------------------------


@dataclass
class PairCheck:
    x: np.ndarray
    y: np.ndarray
    t: float
    labels: list
    empirical: np.ndarray
    analytic: np.ndarray
    se: np.ndarray
    z: np.ndarray

    @property
    def z_max(self) -> float:
        return float(np.max(np.abs(self.z))) if self.z.size else 0.0

    def to_dict(self) -> dict:
        return {"x": self.x.tolist(), "y": self.y.tolist(), "t": self.t,
                "labels": self.labels,
                "empirical": self.empirical.tolist(),
                "analytic": self.analytic.tolist(),
                "se": self.se.tolist(), "z": self.z.tolist(),
                "z_max": self.z_max}


@dataclass
class CheckReport:
    passed: bool
    z_max: float
    z_threshold: float
    n_samples: int
    l_max: int
    tail_bound: float
    pairs: list

    def to_dict(self) -> dict:
        return {"passed": self.passed, "z_max": self.z_max,
                "z_threshold": self.z_threshold, "n_samples": self.n_samples,
                "L_max": self.l_max, "tail_bound": self.tail_bound,
                "pairs": [p.to_dict() for p in self.pairs]}


def _zscores(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    z = np.zeros_like(diff)
    nz = se > 0.0
    z[nz] = diff[nz] / se[nz]
    z[~nz & (np.abs(diff) > 1e-300)] = np.inf
    return z


def _pair_statistics(seq, values, idx_x, idx_y):
    """(labels, empirical, se) of the operator-representation entries."""
    vx = values[:, idx_x, :]
    vy = values[:, idx_y, :]
    n = values.shape[0]
    labels = entry_labels(seq)
    if seq.variant == MATRIX:
        prod = vx[:, :, None] * vy[:, None, :]          # (n, p, p)
        emp = prod.mean(axis=0)
        se = prod.std(axis=0, ddof=1) / math.sqrt(n)
        return labels, emp.ravel(), se.ravel()
    prod = vx * vy                                      # (n, 2K+1)
    emp, se = [], []
    for k in range(seq.dim):
        if k == 0:
            sample = prod[:, 0]
        else:
            sample = np.concatenate([prod[:, 2 * k - 1], prod[:, 2 * k]])
        emp.append(sample.mean())
        se.append(sample.std(ddof=1) / math.sqrt(sample.size))
    return labels, np.array(emp), np.array(se)


def monte_carlo_kernel_check(seq: SchoenbergSequence, pairs, n_samples: int,
                             seed: int = 0, stream: int = 0,
                             l_max: int | None = None,
                             z_threshold: float = 4.0,
                             analytic_seq: SchoenbergSequence | None = None) -> CheckReport:
    """Compare sampled covariances against the analytic kernel at point pairs.

    The analytic side is truncated at the sampling ``l_max`` so sampling
    error is not conflated with truncation error; the kernel tail bound is
    reported separately.  Entries are compared in the operator
    representation (p x p for matrices, folded frequencies for the fourier
    variant, pooling the cos/sin coordinate pairs).  Passes when every
    entrywise ``|z| < z_threshold``.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (n_pairs, 2, d+1)")
    L = _check_l_max(seq, l_max)

    # deduplicate points so each field is synthesized once per location
    flat = pairs.reshape(-1, pairs.shape[2])
    uniq, inverse = np.unique(flat.round(decimals=15), axis=0, return_inverse=True)
    grid = SampleGrid.from_points(seq.d, uniq)
    values = synthesize_ensemble(seq, grid, n_samples, l_max=L,
                                 seed=seed, stream=stream)

    ref = truncate_sequence(analytic_seq if analytic_seq is not None else seq, L)
    kernel = IsotropicKernel(ref)

    results = []
    for p_idx in range(pairs.shape[0]):
        ix = int(inverse[2 * p_idx])
        iy = int(inverse[2 * p_idx + 1])
        t = float(np.clip(np.dot(pairs[p_idx, 0], pairs[p_idx, 1]), -1.0, 1.0))
        labels, emp, se = _pair_statistics(seq, values, ix, iy)
        analytic = np.atleast_1d(kernel(t).value.data).ravel()
        z = _zscores(emp - analytic, se)
        results.append(PairCheck(x=pairs[p_idx, 0], y=pairs[p_idx, 1], t=t,
                                 labels=labels, empirical=emp,
                                 analytic=analytic, se=se, z=z))
    z_max = max((r.z_max for r in results), default=0.0)
    return CheckReport(passed=bool(z_max < z_threshold), z_max=z_max,
                       z_threshold=z_threshold, n_samples=n_samples, l_max=L,
                       tail_bound=kernel.tail_bound, pairs=results)


# ---------------------------------------------------------------------------
# Function-space reconstruction and export
# ---------------------------------------------------------------------------


def fourier_function_values(coefficients: np.ndarray, taus) -> np.ndarray:
    """Evaluate a fourier-variant field value as a function on [0, 1].

    The coefficient vector is expressed in the orthonormal basis
    ``(1, sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t))_{k>=1}``:

        f(tau) = v_0 + sqrt(2) sum_k (v_{2k-1} cos(2 pi k tau)
                                      + v_{2k} sin(2 pi k tau)).
    """
    v = np.asarray(coefficients, dtype=float)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    k_max = (v.shape[-1] - 1) // 2
    out = np.full(taus.shape, v[0], dtype=float)
    for k in range(1, k_max + 1):
        out += math.sqrt(2.0) * (v[2 * k - 1] * np.cos(2 * math.pi * k * taus)
                                 + v[2 * k] * np.sin(2 * math.pi * k * taus))
    return out


def write_field_csv(sample: FieldSample, path) -> None:
    """CSV export: point coordinates then value vector, one row per point.

    Fields are ``repr`` of the float64 values, unquoted (no field contains a
    comma, quote or line break), and every line ends in ``\\r\\n``.
    """
    d = sample.grid.d
    dim = sample.values.shape[1]
    header = [f"x{i}" for i in range(d + 1)] + [f"v{i}" for i in range(dim)]
    table = np.hstack([sample.grid.points, sample.values])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, table.shape[0], _CSV_CHUNK_ROWS):
            rows = table[start:start + _CSV_CHUNK_ROWS].tolist()
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_field_json(sample: FieldSample, path) -> None:
    obj = {"d": sample.grid.d, "points": sample.grid.points.tolist(),
           "values": sample.values.tolist(), "L_max": sample.l_max,
           "seed": sample.seed, "stream": sample.stream}
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
