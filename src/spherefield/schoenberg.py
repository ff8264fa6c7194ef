"""Operator-valued Schoenberg sequences and the kernels they induce.

A d-Schoenberg sequence is a family ``{b_l}`` of positive semi-definite
trace-class operators expanding an isotropic kernel on S^d,

    R(x, y) = sum_l b_l C_l^lam(x . y),        lam = (d - 1) / 2.

Three operator variants are supported:

* ``scalar``            -- a nonnegative real (H = R),
* ``matrix``            -- a p x p symmetric PSD matrix (H = R^p),
* ``fourier_diagonal``  -- a diagonal operator on the truncated real Fourier
  space of L^2([0,1]).  Entry ``k`` of the stored vector carries the shared
  eigenvalue of the +/-k modes, so it has multiplicity 1 for k = 0 and 2 for
  k >= 1; traces and Hilbert-Schmidt sums weight entries accordingly.
  :func:`unfolded_index` is the one definition of this fold layout: it maps
  each unfolded (cos, sin) coordinate to its folded entry.

A :class:`SchoenbergSequence` stores its coefficients as one stacked array,
degree axis first, and that array is their only representation; its ndim
names the variant (1 scalar, 2 fourier, 3 matrix).  A single
coefficient is a plain array (0-d scalar, 1-d folded fourier entries, 2-d
matrix), checked by :func:`one_degree_stack` under the same rules as a
sequence.  The scalar variant is handled as a diagonal with one entry of
multiplicity 1, so sequence-level code has one dense and one diagonal branch.

Sequences are PSD by construction (enough for sampling); the equivalence
criterion also needs the strict positivity of :func:`strict_positivity`,
which :func:`validate_sequence` reports with whether the weighted trace is
finite (:func:`has_finite_variance`), as kernels and sampling need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .harmonics import (
    gegenbauer_all,
    gegenbauer_at_one_all,
    gegenbauer_order,
    surface_measure,
)

SCALAR = "scalar"
MATRIX = "matrix"
FOURIER_DIAGONAL = "fourier_diagonal"

# Double-precision eigensolvers produce O(eps * trace) negative dust on PSD
# input; eigenvalues above -PSD_RTOL * trace count as nonnegative.  Strict
# positivity needs equilibrated eigenvalues above STRICT_RTOL * p.
PSD_RTOL = 1e-12
STRICT_RTOL = 1e-12

_SYM_RTOL = 1e-12

# The variant of a coefficient stack (degree axis first), named by its ndim.
# A stack of ndim 3 is dense; any other stack is diagonal, a scalar being one
# entry of multiplicity 1, so sequence-level code has one branch for each.
_STACK_VARIANT = {1: SCALAR, 2: FOURIER_DIAGONAL, 3: MATRIX}


def unfolded_index(n: int) -> np.ndarray:
    """Folded entry ``(0, 1, 1, 2, 2, ...)`` of each of the ``2n - 1``
    unfolded coordinates of n folded diagonal entries: coordinate 0 is entry
    0, coordinates ``2k - 1`` and ``2k`` (the cos and sin of frequency k)
    are entry k.  ``n = 1`` gives ``(0,)``, a scalar coefficient."""
    return (np.arange(2 * n - 1) + 1) // 2


def fold_multiplicities(n: int) -> np.ndarray:
    """Multiplicities ``(1, 2, 2, ...)`` of n folded diagonal entries: the
    number of unfolded coordinates of each (see :func:`unfolded_index`)."""
    return np.bincount(unfolded_index(n), minlength=n).astype(float)


@np.errstate(over="ignore")   # a trace beyond float64 is inf, without a warning
def _traces(stack: np.ndarray) -> np.ndarray:
    if stack.ndim == 3:
        return np.trace(stack, axis1=1, axis2=2)
    v = stack.reshape(stack.shape[0], -1)
    return np.add.reduce(v * fold_multiplicities(v.shape[1]), axis=1)   # row by row


def _min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    if stack.ndim == 3:
        return np.linalg.eigvalsh(stack)[:, 0]
    return stack.reshape(stack.shape[0], -1).min(axis=1)


def _reject(bad: np.ndarray, message) -> None:
    """Raise ``ValueError(message(l))`` for the first degree l flagged in bad."""
    if np.any(bad):
        raise ValueError(message(int(np.argmax(bad))))


def checked_stack(stack, first: int = 0) -> np.ndarray:
    """Validate coefficients of one variant (named by the ndim) stacked along
    the degree axis and return them as a read-only array.

    Every entry must be finite.  Diagonal entries must be >= 0; dense
    coefficients must be symmetric within ``_SYM_RTOL`` (relative, Frobenius,
    taken after scaling each degree by a power of two so that neither norm
    overflows) and PSD within ``PSD_RTOL * trace``, and are returned
    symmetrized (a new array; the bits of a symmetric stack, whose entries
    may reach float64's largest).  A diagonal stack that is a float64 array,
    already read-only and owning its data, is adopted as it is, so a
    builder's stack is not held twice; any other diagonal stack (writable,
    or a view of another array) is copied, so no caller can change a
    sequence's coefficients through it.  (numpy lets the owner of an adopted
    array make it writable again; the model builders hand theirs over and
    keep no reference.)  Errors name the first failing degree, counting the
    stack's first row as degree ``first``.
    """
    s = np.asarray(stack, dtype=float)
    if s.ndim not in _STACK_VARIANT:
        raise ValueError("coefficients must stack to an (L+1,) scalar, "
                         "(L+1, K+1) fourier or (L+1, p, p) matrix array, "
                         f"got shape {s.shape}")
    variant = _STACK_VARIANT[s.ndim]
    if 0 in s.shape or (s.ndim == 3 and s.shape[1] != s.shape[2]):
        raise ValueError(f"{variant} coefficients must stack to a nonempty "
                         f"{s.ndim}-d array (matrices square), "
                         f"got shape {s.shape}")
    flat = s.reshape(s.shape[0], -1)
    _reject(~np.all(np.isfinite(flat), axis=1),
            lambda l: f"{variant} coefficient b_{first + l} must be finite")
    if s.ndim == 3:
        top = np.frexp(np.max(np.abs(flat), axis=1))[1]
        t = np.ldexp(s, -top[:, None, None])   # entries below 1 in magnitude
        asym = np.linalg.norm(t - t.swapaxes(1, 2), axis=(1, 2))
        _reject(asym > _SYM_RTOL * np.linalg.norm(t, axis=(1, 2)),
                lambda l: f"matrix coefficient b_{first + l} must be symmetric "
                          "within 1e-12")
        s = s - 0.5 * (s - s.swapaxes(1, 2))   # no overflow, and exact if symmetric
        s = np.where(np.tri(s.shape[1], k=-1, dtype=bool), s.swapaxes(1, 2), s)
        tr = _traces(s)
        w0 = _min_eigenvalues(s)
        _reject(w0 < -PSD_RTOL * np.maximum(tr, 0.0),
                lambda l: f"matrix coefficient b_{first + l} must be PSD: min "
                          f"eigenvalue {w0[l]:.3e} below -{PSD_RTOL:g} * trace "
                          f"({tr[l]:.3e})")
    else:
        _reject(np.any(flat < 0.0, axis=1),
                lambda l: f"{variant} coefficient b_{first + l} must have "
                          "entries >= 0")
        if s.flags.writeable or not s.flags.owndata:
            s = np.array(s)
    s.setflags(write=False)
    return s


def strict_positivity(stack: np.ndarray):
    """The one strict-positivity rule: ``(bad, why)``, a mask of the degrees
    of a checked stack whose coefficient is not strictly positive, and the
    reason ``why(l)``.  Diagonal entries must be > 0, exactly; a dense
    coefficient equilibrated by ``diag(b)^{-1/2}`` needs a smallest eigenvalue
    above ``STRICT_RTOL * p``, which no positive diagonal scaling moves."""
    if stack.ndim < 3:
        return (np.any(stack.reshape(stack.shape[0], -1) <= 0.0, axis=1),
                lambda l: "nonpositive entry")
    diag = np.diagonal(stack, axis1=1, axis2=2)
    zero = np.any(diag <= 0.0, axis=1)
    scale = 1.0 / np.sqrt(np.where(zero[:, None], 1.0, diag))
    w = np.linalg.eigvalsh(scale[:, :, None] * stack * scale[:, None, :])
    lo, hi, p = w[:, 0], w[:, -1], w.shape[1]
    return zero | (lo <= STRICT_RTOL * p), lambda l: (
        "nonpositive diagonal entry" if zero[l] else
        f"not strictly positive after diagonal equilibration: min eigenvalue "
        f"ratio {lo[l] / p:.6e}, condition number "
        f"{hi[l] / lo[l] if lo[l] > 0 else math.inf:.3e}")


def one_degree_stack(b) -> np.ndarray:
    """One coefficient checked as a one-degree stack by :func:`checked_stack`:
    a 0-d scalar, a 1-d vector of folded fourier entries or a 2-d matrix
    becomes a read-only stack of shape ``(1,) + b.shape``."""
    b = np.asarray(b, dtype=float)
    if b.ndim + 1 not in _STACK_VARIANT:
        raise ValueError(f"a coefficient must be a 0-d, 1-d or 2-d array, "
                         f"got shape {b.shape}")
    return checked_stack(b[None])


def operator_sqrt(b: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of one matrix coefficient; negative
    eigenvalue dust is clamped to zero."""
    w, v = np.linalg.eigh(b)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SchoenbergSequence:
    """Dimension d and the coefficients ``b_0 .. b_{L_max}``.

    ``coeffs`` is a read-only stack with the degree axis first, whose ndim
    names the variant: ``(L+1,)`` scalar, ``(L+1, K+1)`` fourier,
    ``(L+1, p, p)`` matrix.  The input is checked in one batched pass (finite,
    symmetric and PSD; errors name the first failing degree) and stored as a
    new array, except that a read-only float64 diagonal stack that owns its
    data is adopted without a copy (:func:`checked_stack`).  ``tail`` is
    ``None`` or
    an object with ``trace_tail_bound(l_from)``, an upper bound on
    ``sum_{l > l_from} trace(b_l) C_l^lam(1)``, and ``tail_to_dict()``, its
    JSON object; the model builders pass their parameter object.  ``==``
    compares values (d, tail, and the shape and every entry of the stack);
    sequences are unhashable.
    """

    d: int
    coeffs: np.ndarray
    tail: object = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", checked_stack(self.coeffs))
        if self.d < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.d}")

    def __eq__(self, other):
        if not isinstance(other, SchoenbergSequence):
            return NotImplemented
        return (self.d == other.d and self.tail == other.tail
                and np.array_equal(self.coeffs, other.coeffs))

    @property
    def variant(self) -> str:
        """``scalar``, ``fourier_diagonal`` or ``matrix``: the stack's ndim."""
        return _STACK_VARIANT[self.coeffs.ndim]

    @property
    def dim(self) -> int:
        """Coefficient side: p for matrices, K_max + 1 folded entries, 1 for scalars."""
        return self.coeffs.shape[1] if self.coeffs.ndim > 1 else 1

    @property
    def l_max(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def order(self) -> float:
        return gegenbauer_order(self.d)

    def quadratic_forms(self, u) -> np.ndarray:
        """``<b_l u, u>`` per degree for a coefficient-space direction ``u``.

        For the fourier variant ``u`` is folded (length K_max + 1) and the
        forms carry the fold multiplicities.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.dim,):
            raise ValueError(f"direction must have length {self.dim}, "
                             f"got shape {u.shape}")
        v = self.coeffs.reshape(self.coeffs.shape[0], -1)
        x, w = ((u @ self.coeffs, u) if self.variant == MATRIX
                else (v * fold_multiplicities(self.dim), u ** 2))
        with np.errstate(over="ignore", invalid="ignore"):   # inf or nan, no warning
            return np.add.reduce(x * w, axis=1)

    def trace_terms(self) -> np.ndarray:
        """Per-degree variance contributions ``trace(b_l) C_l^lam(1)``."""
        c1 = gegenbauer_at_one_all(self.order, self.l_max)
        return _traces(self.coeffs) * c1


def json_finite(x):
    """A float, or a 1-d array as a list, with ``None`` (JSON ``null``) in
    place of every value that is not finite, as JSON has no infinity or NaN.
    The report builders write their computed floats through this."""
    if isinstance(x, np.ndarray):
        return [v if math.isfinite(v) else None for v in x.tolist()]
    return x if x is None or math.isfinite(x) else None


TRACE_NOT_FINITE = "weighted trace not finite"


def _weighted_partial_sums(seq: SchoenbergSequence) -> np.ndarray:
    """The partial sums of ``omega_d`` times ``seq.trace_terms()`` over
    l = 0 .. L_max; the last sum is the truncated field variance integrated
    over S^d.  An overflow gives ``inf`` without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(surface_measure(seq.d) * seq.trace_terms())


def has_finite_variance(seq: SchoenbergSequence) -> bool:
    """Whether every weighted-trace partial sum is a finite float64.

    :func:`validate_sequence` flags a sequence for which it is not as
    :data:`TRACE_NOT_FINITE`; its kernel and samples would hold ``inf`` or
    ``nan``.
    """
    return bool(np.all(np.isfinite(_weighted_partial_sums(seq))))


def tail_bound(seq: SchoenbergSequence):
    """The one truncation-tail rule: ``(bound, heuristic)``.

    ``bound`` dominates ``sum_{l > L_max} trace(b_l) C_l^lam(1)``, and so the
    dropped kernel terms in trace norm, uniformly in t since
    ``|C_l(t)| <= C_l(1)``: the closed form of the sequence's ``tail`` when
    it has one, else the last term ``trace(b_L) C_L^lam(1)`` (``heuristic``
    true; ``inf`` without a warning where it overflows), else ``None`` at
    ``L_max = 0``.
    """
    if seq.tail is not None:
        return seq.tail.trace_tail_bound(seq.l_max), False
    if seq.l_max == 0:
        return None, True
    with np.errstate(over="ignore", invalid="ignore"):
        return float(seq.trace_terms()[-1]), True


def validate_sequence(seq: SchoenbergSequence) -> dict:
    """The validity report of docs/schemas/validity_report.schema.json, the
    object that ``spherefield validate`` prints (which adds ``margin`` for
    multiquadratic models): traces, eigenvalue margins, weighted-trace
    partial sums, and tail estimate, with ``None`` for a value that is not
    finite.

    ``passed`` requires a finite weighted trace and every coefficient strictly
    positive (:func:`strict_positivity`); ``min_eig_ratios`` (raw
    ``min eig / trace``) is a diagnostic only."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        traces = _traces(seq.coeffs)
        mins = _min_eigenvalues(seq.coeffs)
        ratios = np.where(traces > 0, mins / np.where(traces > 0, traces, 1.0), 0.0)
    strictly_positive = not np.any(strict_positivity(seq.coeffs)[0])
    partial = _weighted_partial_sums(seq)
    finite = bool(np.all(np.isfinite(partial)))

    flags = []
    if not strictly_positive:
        flags.append("not strictly positive")
    if not finite:
        flags.append(TRACE_NOT_FINITE)

    tail_estimate, heuristic = tail_bound(seq)
    if tail_estimate is not None:
        tail_estimate *= surface_measure(seq.d)
        if heuristic:
            flags.append("tail estimate is a last-term heuristic")

    return {
        "d": seq.d,
        "variant": seq.variant,
        "L_max": seq.l_max,
        "traces": json_finite(traces),
        "min_eig_ratios": json_finite(ratios),
        "weighted_partial_sums": json_finite(partial),
        "tail_estimate": json_finite(tail_estimate),
        "tail_is_heuristic": heuristic,
        "psd_valid": True,   # construction checks PSD
        "strictly_positive": strictly_positive,
        "flags": flags,
        "passed": strictly_positive and finite,
    }


class IsotropicKernel:
    """Evaluator for ``R(t) = sum_{l <= L_max} b_l C_l^lam(t)``; the
    truncation tail is :func:`tail_bound`'s."""

    def __init__(self, seq: SchoenbergSequence):
        self.seq = seq
        self._order = seq.order

    def evaluate_stack(self, ts) -> np.ndarray:
        """Raw kernel values for an array of ts, shape ``(len(ts),) + coeff shape``,
        summed at one OpenBLAS thread (:func:`one_blas_thread`)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        c = gegenbauer_all(self._order, self.seq.l_max, ts)  # (L+1, nt)
        with one_blas_thread():
            return np.tensordot(np.moveaxis(c, 0, -1), self.seq.coeffs, axes=([-1], [0]))

    def __call__(self, t: float) -> np.ndarray:
        """``R(t)`` as a read-only array of the shape of one coefficient: 0-d
        for scalars, symmetrized for matrices."""
        vals = self.evaluate_stack([float(t)])[0]
        if self.seq.variant == MATRIX:
            vals = 0.5 * (vals + vals.T)
        vals = np.array(vals)   # a 0-d array for scalars; a copy to freeze
        vals.setflags(write=False)
        return vals


def entry_labels(seq: SchoenbergSequence) -> list:
    """Labels of the entries of one coefficient in ``ravel`` order: ``R[i][j]``
    for matrices, ``gamma[k]`` for folded fourier entries, ``R`` for scalars."""
    if seq.variant == MATRIX:
        return [f"R[{i}][{j}]" for i in range(seq.dim) for j in range(seq.dim)]
    if seq.variant == FOURIER_DIAGONAL:
        return [f"gamma[{k}]" for k in range(seq.dim)]
    return ["R"]


def check_compatible(seq1: SchoenbergSequence, seq2: SchoenbergSequence) -> None:
    """Raise ``ValueError`` unless two sequences share ``d``, the variant and
    the coefficient size; their lengths may differ."""
    if seq1.d != seq2.d:
        raise ValueError(f"sphere dimensions differ: {seq1.d} vs {seq2.d}")
    if seq1.coeffs.shape[1:] != seq2.coeffs.shape[1:]:
        raise ValueError("sequences must share variant and coefficient size, got "
                         f"{seq1.variant} of size {seq1.dim} and {seq2.variant} "
                         f"of size {seq2.dim}")


def truncate_sequence(seq: SchoenbergSequence, l_max: int) -> SchoenbergSequence:
    """The one way to shorten a sequence, whose length is otherwise fixed where
    it is built: drop degrees above ``l_max`` (in ``[0, seq.l_max]``), and
    return ``seq`` itself when none is dropped.  The ``tail`` (a bound valid
    for any starting degree) is carried over."""
    if not 0 <= l_max <= seq.l_max:
        raise ValueError(f"l_max must lie in [0, {seq.l_max}], got {l_max}")
    if l_max == seq.l_max:
        return seq
    return SchoenbergSequence(seq.d, seq.coeffs[:l_max + 1], seq.tail)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sequence_to_dict(seq: SchoenbergSequence) -> dict:
    return {
        "d": seq.d,
        "variant": seq.variant,
        "L_max": seq.l_max,
        "coeffs": seq.coeffs.tolist(),  # row-major nested lists
        "tail": seq.tail.tail_to_dict() if seq.tail is not None else None,
    }

