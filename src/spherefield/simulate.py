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
keyed with the 128-bit key ``(seed, stream)`` of two integers in [0, 2^64)
(others raise ``ValueError``); distinct stream ids give independent streams
and identical ``(seed, stream)`` reproduce outputs bit-for-bit.  Gaussians
use numpy's ziggurat ``standard_normal``.  A single field draws, for each
degree ``l`` ascending, a row-major block of shape ``(h(l), dim)``; an
ensemble draws ``(n_fields, H, dim)`` with fields as the leading axis.
PSD coefficients that are not strictly positive are sampled
through the PSD square root (zero modes draw no variance); sampling never
needs inverses.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from ._memory import require_fit
from .harmonics import (
    addition_constant,
    check_points,
    degree_slices,
    h_dim,
    harmonic_basis,
    harmonic_count,
    iter_degree_blocks,
    require_synthesis_dim,
)
from .models import parse_fields
from .schoenberg import (
    MATRIX,
    IsotropicKernel,
    SchoenbergSequence,
    check_compatible,
    entry_labels,
    json_finite,
    operator_sqrt,
    tail_bound,
    truncate_sequence,
    unfolded_index,
)

# float64 elements per ensemble batch buffer or sample field group; the
# ensemble's two draw slots hold at most a quarter of that each, so its
# working set is about 1.5 * _BATCH_ELEMS * 8 bytes.  1M keeps the 300-field
# two-point ensemble of a default mc-check (576,600 elements) in one batch.
_BATCH_ELEMS = 1_000_000
_MAX_POINTS = int(np.iinfo(np.intp).max)   # the largest size of a numpy array
_CSV_CHUNK_ROWS = 256      # rows converted to Python floats at a time
Z_THRESHOLD = 4.0          # a kernel check passes when every |z| is below it


def check_key(name: str, value: int) -> None:
    """Raise ``ValueError`` unless ``value`` is one word of a Philox key, an
    integer in [0, 2^64); no two valid ``(seed, stream)`` keys alias."""
    if not 0 <= value < 2 ** 64:
        shown = value if abs(value) < 2 ** 128 else f"a {value.bit_length()}-bit integer"
        raise ValueError(f"{name} must lie in [0, 2^64), got {shown}")


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the (seed, stream) key (see module docstring)."""
    check_key("seed", seed)
    check_key("stream", stream)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleGrid:
    """Evaluation points on S^d (d = 1 or 2)."""

    d: int
    points: np.ndarray

    def __post_init__(self):
        require_synthesis_dim(self.d)
        pts = check_points(self.d, self.points)
        if pts.shape[0] == 0:
            raise ValueError("grid must contain at least one point")
        pts = np.array(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_points(cls, d: int, points) -> "SampleGrid":
        try:
            pts = np.asarray(points, dtype=float)
        except ValueError:
            # numpy's ragged-array message names no point; name the first without d+1
            i = next((i for i, x in enumerate(points) if len(x) != d + 1), None)
            if i is None:
                raise
            raise ValueError(f"field 'points[{i}]' must be an array of {d + 1} "
                             f"numbers, got {list(points[i])!r}") from None
        return cls(d=d, points=pts)

    @classmethod
    def uniform_random(cls, d: int, n: int, seed: int = 0, stream: int = 0) -> "SampleGrid":
        """n points drawn uniformly (normalized Gaussians), reproducible."""
        rng = make_generator(seed, stream)
        _require_grid_fit(d, n)
        v = rng.standard_normal((n, d + 1))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return cls(d=d, points=v)

    @classmethod
    def equiangular(cls, n_polar: int, n_azimuth: int) -> "SampleGrid":
        """Latitude-longitude product grid on S^2 (pole-free midpoints)."""
        _require_grid_fit(2, max(n_polar, 0) * max(n_azimuth, 0))
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
        _require_grid_fit(1, n)
        phi = 2.0 * math.pi * np.arange(n) / n
        return cls(d=1, points=np.column_stack([np.cos(phi), np.sin(phi)]))

    @classmethod
    def from_spec(cls, spec: dict) -> "SampleGrid":
        """The grid of a spec of docs/schemas/grid.schema.json.  A missing
        field is a ``KeyError``; an unknown field, or one of the wrong type,
        a ``TypeError``; an unknown kind, or a value the constructor
        rejects, a ``ValueError``."""
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _GRID_KINDS:
            raise ValueError(f"unknown grid kind {kind!r}")
        make, fields = _GRID_KINDS[kind]
        return getattr(cls, make)(**parse_fields(spec, "kind", fields, ("seed", "stream")))


def _require_grid_fit(d: int, n: int) -> None:
    """Refuse a grid of n points on S^d before it is built: ``ValueError``
    beyond the size of any numpy array, ``MemoryError`` beyond physical
    memory.  Its points, their copy in :class:`SampleGrid` and the
    temporaries that build them are about three arrays of ``n * (d+1)``
    floats."""
    if n > _MAX_POINTS:
        raise ValueError(f"a grid may have at most {_MAX_POINTS} points")
    require_fit(3 * 8 * (d + 1) * n, f"a grid of {n} points on S^{d}")


# The fields of each grid kind of docs/schemas/grid.schema.json, key -> kind
# as in models._MODEL_BLOCKS, and the SampleGrid constructor they are the
# keywords of; only a uniform grid has the optional seed and stream.
_GRID_KINDS = {
    "points": ("from_points", {"d": int, "points": ((float, None), None)}),
    "uniform": ("uniform_random", {"d": int, "n": int, "seed": int, "stream": int}),
    "equiangular": ("equiangular", {"n_polar": int, "n_azimuth": int}),
    "equispaced": ("equispaced_circle", {"n": int}),
}


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
    otherwise the unfolded length of the folded entries (2*K_max + 1 for the
    fourier variant, 1 for scalars)."""
    if seq.variant == MATRIX:
        return seq.dim
    return unfolded_index(seq.dim).size


def coefficient_covariance(seq: SchoenbergSequence, l: int) -> np.ndarray:
    """Covariance ``bhat_l = b_l * omega_d C_l(1) / h(l)`` of the degree-l
    harmonic coefficients, in the materialized coefficient space (folded
    diagonal entries repeated onto their (cos, sin) pairs)."""
    bhat = seq.coeffs[l] * (1.0 / addition_constant(seq.d, l))
    if seq.variant == MATRIX:
        return bhat
    return np.atleast_1d(bhat)[unfolded_index(seq.dim)]


def _scale_factor(seq: SchoenbergSequence, l: int) -> np.ndarray:
    """Square root of bhat_l, ready to scale standard normals: the symmetric
    PSD root for the matrix variant (applied as ``z @ root``), entrywise
    roots otherwise (applied as ``z * root``)."""
    bhat = coefficient_covariance(seq, l)
    if seq.variant == MATRIX:
        return operator_sqrt(bhat)
    return np.sqrt(bhat)


def sample_coefficients(seq: SchoenbergSequence, l: int,
                        rng: np.random.Generator, root=None) -> np.ndarray:
    """Draw the ``h(l)`` degree-l coefficient vectors, shape (h(l), dim).

    Zero-mean Gaussian with covariance ``bhat_l``; the matrix variant goes
    through the symmetric PSD square root, the diagonal variants scale
    independent normals by sqrt(gamma-hat) entrywise (two normals per folded
    fourier frequency k >= 1).  ``root`` is that scale factor when the
    caller already has it (it depends on ``(seq, l)`` alone); by default it
    is computed here.
    """
    if not 0 <= l <= seq.l_max:
        raise ValueError(f"degree must lie in [0, {seq.l_max}], got {l}")
    z = rng.standard_normal((h_dim(seq.d, l), unfolded_dim(seq)))
    if root is None:
        root = _scale_factor(seq, l)
    return z @ root if seq.variant == MATRIX else z * root[None, :]


def synthesize_field(seq: SchoenbergSequence, grid: SampleGrid, seed: int = 0,
                     stream: int = 0) -> FieldSample:
    """Synthesize one field realization; deterministic given (seed, stream)."""
    return synthesize_fields(seq, grid, [stream], seed=seed)[0]


def synthesize_fields(seq: SchoenbergSequence, grid: SampleGrid, streams,
                      seed: int = 0) -> list:
    """Synthesize one field realization per stream id in ``streams``.

    Field ``i`` is :func:`synthesize_field` of ``(seed, streams[i])``, bit
    for bit: it draws from its own generator, degree by degree, and each
    degree adds ``block @ a`` to it alone, so how fields are grouped does
    not change a bit.  The group walks the harmonic recurrence once
    (:func:`iter_degree_blocks`) and never builds the ``(n_points, H)``
    basis, and computes each degree's scale factor once; its values, ``len(streams) * n_points * dim`` floats, are views
    of one array (:func:`field_groups` bounds them).  The products run at
    one OpenBLAS thread (:func:`one_blas_thread`).
    """
    if grid.d != seq.d:
        raise ValueError(f"grid dimension {grid.d} does not match sequence d={seq.d}")
    rngs = [make_generator(seed, stream) for stream in streams]
    values = np.zeros((len(rngs), grid.n_points, unfolded_dim(seq)))
    with one_blas_thread():
        for l, block in enumerate(iter_degree_blocks(seq.d, seq.l_max, grid.points)):
            root = _scale_factor(seq, l)                        # once per group
            for v, rng in zip(values, rngs):
                v += block @ sample_coefficients(seq, l, rng, root)   # (h(l), dim)
    return [FieldSample(grid=grid, values=v, l_max=seq.l_max, seed=seed,
                        stream=stream) for v, stream in zip(values, streams)]


def field_groups(seq: SchoenbergSequence, grid: SampleGrid, streams) -> list:
    """Split ``streams`` into consecutive groups for :func:`synthesize_fields`
    of at most ``_BATCH_ELEMS`` value elements each (at least one field)."""
    streams = list(streams)
    if not streams:
        return []
    it = iter(streams)
    sizes = _batch_sizes(len(streams), grid.n_points * unfolded_dim(seq))
    return [list(itertools.islice(it, nb)) for nb in sizes]


def _balanced_sizes(n: int, cap: int) -> list:
    """Split ``n`` items into the fewest parts of at most ``cap`` (at least
    one item each); sizes differ by at most one, the larger ones first."""
    n_parts = -(-n // cap)
    small, n_large = divmod(n, n_parts)
    return [small + 1] * n_large + [small] * (n_parts - n_large)


def _batch_sizes(n_fields: int, field_elems: int) -> list:
    """Balanced split of ``n_fields`` into batches of at most ``_BATCH_ELEMS``
    float64 elements (at least one field each); sizes differ by at most one."""
    return _balanced_sizes(n_fields, max(1, _BATCH_ELEMS // max(1, field_elems)))


class EnsembleTooLarge(MemoryError):
    """The ``(n_fields, n_points, dim)`` output of :func:`synthesize_ensemble`
    needs more than physical memory."""


def synthesize_ensemble(seq: SchoenbergSequence, grid: SampleGrid, n_fields: int,
                        seed: int = 0, stream: int = 0) -> np.ndarray:
    """Synthesize ``n_fields`` independent realizations from one stream.

    Returns values of shape (n_fields, n_points, dim).  Deterministic given
    (seed, stream); fields are batched internally without changing the draw
    sequence.

    Memory: one batch buffer (the scaled draws, laid out as the rows of the
    contraction) and a ring of two draw slots, each of at most half a batch
    and at most a quarter of ``_BATCH_ELEMS`` elements (at least one
    field), about ``1.5 * _BATCH_ELEMS * 8`` bytes (12 MB) whatever
    ``n_fields`` is, plus the output and the ``(n_points, H)`` harmonic
    basis.  A field of more than half of ``_BATCH_ELEMS`` elements forms a
    batch of its own, drawn into one slot of one field.  An output beyond
    physical memory is refused first, with :class:`EnsembleTooLarge`; then
    a basis, ring and batch buffer that together exceed it, with a plain
    ``MemoryError``.
    Philox fills a request sequentially, so how a batch is split into slots
    changes no bit.  The batch partition is a pure function of
    ``(n_fields, H, dim)`` and ``_BATCH_ELEMS``, balanced so that sizes
    differ by at most one: BLAS picks its kernel, and so the rounding of
    the contraction, from the batch's shape.  On a one-point grid numpy's
    ``dot`` sends the contraction to BLAS dgemv, whose last ``nb * dim mod
    4`` rows take a remainder kernel, so there a field's last bits also
    depend on its position in its batch; a change of the partition moves
    last bits on one- and two-point grids only.

    Threads: one worker thread draws the next slot while the caller scales
    the current one and contracts each finished batch; only the caller calls
    BLAS, at one OpenBLAS thread (:func:`one_blas_thread`), so the bits do
    not depend on ``OPENBLAS_NUM_THREADS``.  The worker has exited when this
    function returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    if grid.d != seq.d:
        raise ValueError(f"grid dimension {grid.d} does not match sequence d={seq.d}")
    if n_fields < 1:
        raise ValueError(f"n_fields must be >= 1, got {n_fields}")
    dim = unfolded_dim(seq)
    try:   # before anything else that grows with n_fields
        require_fit(8 * n_fields * grid.n_points * dim,
                    f"an ensemble of {n_fields} fields on {grid.n_points} points")
    except MemoryError as exc:
        raise EnsembleTooLarge(str(exc)) from None
    L = seq.l_max
    H = harmonic_count(seq.d, L)
    sizes = _batch_sizes(n_fields, H * dim)
    cap = min(-(-sizes[0] // 2), max(1, (_BATCH_ELEMS // 4) // (H * dim)))
    n_slots = 1 if sizes[0] == 1 else 2
    zt_fields = sizes[0] if sizes[0] > 1 else 0
    # a plain MemoryError: the basis, ring and batch buffer grow with the
    # truncation, not with n_fields
    require_fit(8 * H * (grid.n_points + dim * (n_slots * cap + zt_fields)),
                f"the degree-{L} harmonic basis and draw buffers on "
                f"{grid.n_points} points")
    rng = make_generator(seed, stream)
    basis = harmonic_basis(seq.d, L, grid.points)        # (npts, H)
    slices = degree_slices(seq.d, L)
    factors = [_scale_factor(seq, l) for l in range(L + 1)]
    scale = np.matmul if seq.variant == MATRIX else np.multiply

    # A batch of one field is scaled in place in its slot and contracted as
    # z[0].T, through BLAS's transposed-operand kernel, which rounds
    # differently from the batch buffer's rows: this keeps one-field batches
    # bit-identical to earlier versions of this function.  When every batch
    # has one field, one slot and no batch buffer suffice.  Larger batches
    # are scaled straight into zt, laid out as the (nb*dim, H) rows of the
    # contraction.
    ring = [np.empty((cap, H, dim)) for _ in range(n_slots)]
    zt = np.empty((zt_fields, dim, H)) if zt_fields else None
    out = np.empty((n_fields, grid.n_points, dim))
    # (first field of the batch, batch size, slot start, slot end) in draw order
    slots = []
    done = 0
    for nb in sizes:
        f1 = 0
        for n in _balanced_sizes(nb, cap):
            slots.append((done, nb, f1, f1 + n))
            f1 += n
        done += nb

    def draw(k):
        f0, f1 = slots[k][2:]
        z = ring[k % len(ring)][:f1 - f0]
        # the size is redundant with out=, but wrappers that count draws read it
        rng.standard_normal(z.shape, out=z)
        return z

    # A draw may start while the caller works only on memory it does not
    # write: with two slots the next draw fills the slot the caller is not
    # reading, and a finished batch of two or more fields is contracted from
    # zt.  With one slot the next draw waits for the contraction.
    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, 0)
        for k, (first, nb, f0, f1) in enumerate(slots):
            z = pending.result()
            following = k + 1 < len(slots)
            if following and len(ring) == 2:
                pending = pool.submit(draw, k + 1)
            scaled = z if nb == 1 else zt[f0:f1].transpose(0, 2, 1)
            for sl, factor in zip(slices, factors):
                scale(z[:, sl], factor, out=scaled[:, sl])
            if f1 == nb:
                rows = z[0].T if nb == 1 else zt[:nb].reshape(nb * dim, H)
                vals = np.dot(rows, basis.T)             # (nb*dim, npts)
                out[first:first + nb] = vals.reshape(nb, dim, -1).transpose(0, 2, 1)
            if following and len(ring) == 1:
                pending = pool.submit(draw, k + 1)
    return out


def empirical_covariance(values: np.ndarray, i: int, j: int):
    """Entrywise mean and standard error of ``Z(x_i) (x) Z(x_j)`` over the
    fields of an ensemble array ``values`` of shape (n_fields, n_points, dim).
    Returns ``(estimate, se)``, both of shape (dim, dim).
    """
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


def _zscores(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    z = np.zeros_like(diff)
    nz = se > 0.0
    z[nz] = diff[nz] / se[nz]
    z[~nz & (np.abs(diff) > 1e-300)] = np.inf
    return z


def _pair_statistics(seq, values, ix, iy):
    """(labels, empirical, se) of the operator-representation entries."""
    labels = entry_labels(seq)
    if seq.variant == MATRIX:
        emp, se = empirical_covariance(values, ix, iy)  # (p, p) each
        return labels, emp.ravel(), se.ravel()
    prod = values[:, ix, :] * values[:, iy, :]          # (n, 2K+1)
    idx = unfolded_index(seq.dim)
    emp, se = [], []
    for k in range(seq.dim):
        # every cos draw, then every sin draw: the order the mean sums in
        sample = prod[:, idx == k].T.ravel()
        emp.append(sample.mean())
        se.append(sample.std(ddof=1) / math.sqrt(sample.size))
    return labels, np.array(emp), np.array(se)


def monte_carlo_kernel_check(seq: SchoenbergSequence, pairs, n_samples: int,
                             seed: int = 0, stream: int = 0,
                             analytic_seq: SchoenbergSequence | None = None) -> dict:
    """Compare sampled covariances against the analytic kernel at point pairs,
    and return the check report of docs/schemas/check_report.schema.json,
    the object that ``spherefield mc-check`` prints (a z-score that is not
    finite is ``None``).

    The analytic side (``analytic_seq``, by default ``seq``, compatible with
    it and at least as long) is truncated at ``seq.l_max``, the sampled
    degrees, so sampling error is not conflated with truncation error; the
    tail bound is reported separately.
    Entries are compared in the operator representation (p x p for matrices,
    folded frequencies pooling the fourier cos/sin pairs).  Passes when
    every entrywise ``|z| < Z_THRESHOLD``.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (n_pairs, 2, d+1)")
    ref = seq if analytic_seq is None else analytic_seq
    check_compatible(seq, ref)
    ref = truncate_sequence(ref, seq.l_max)

    # deduplicate points so each field is synthesized once per location
    flat = pairs.reshape(-1, pairs.shape[2])
    uniq, inverse = np.unique(flat.round(decimals=15), axis=0, return_inverse=True)
    grid = SampleGrid.from_points(seq.d, uniq)
    values = synthesize_ensemble(seq, grid, n_samples, seed=seed, stream=stream)

    kernel = IsotropicKernel(ref)

    results, pair_z_max = [], []
    for p_idx in range(pairs.shape[0]):
        ix = int(inverse[2 * p_idx])
        iy = int(inverse[2 * p_idx + 1])
        t = float(np.clip(np.dot(pairs[p_idx, 0], pairs[p_idx, 1]), -1.0, 1.0))
        labels, emp, se = _pair_statistics(seq, values, ix, iy)
        analytic = np.atleast_1d(kernel(t)).ravel()
        z = _zscores(emp - analytic, se)
        pair_z_max.append(float(np.max(np.abs(z))) if z.size else 0.0)
        results.append({"x": pairs[p_idx, 0].tolist(), "y": pairs[p_idx, 1].tolist(),
                        "t": t, "labels": labels, "empirical": emp.tolist(),
                        "analytic": analytic.tolist(), "se": se.tolist(),
                        "z": json_finite(z), "z_max": json_finite(pair_z_max[-1])})
    z_max = max(pair_z_max, default=0.0)
    return {"passed": bool(z_max < Z_THRESHOLD), "z_max": json_finite(z_max),
            "z_threshold": Z_THRESHOLD, "n_samples": n_samples,
            "L_max": seq.l_max, "tail_bound": json_finite(tail_bound(ref)[0]),
            "pairs": results}


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


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
