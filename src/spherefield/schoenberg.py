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

A sequence stores its coefficients as one stacked array, degree axis first;
the scalar variant is handled as a diagonal with one entry of multiplicity 1,
so sequence-level code has one dense and one diagonal branch.

Strict positivity (needed for inverse square roots and the equivalence
criterion) is a stronger gate than PSD validity (enough for sampling);
:func:`validate_sequence` reports both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

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
# input; eigenvalues above -PSD_RTOL * trace count as nonnegative, and
# strict positivity requires eigenvalues above +STRICT_RTOL * trace.
PSD_RTOL = 1e-12
STRICT_RTOL = 1e-12

_SYM_RTOL = 1e-12

# ndim of a coefficient stack (degree axis first) per variant.  A stack of
# ndim 3 is dense; any other stack is diagonal, a scalar being one entry of
# multiplicity 1, so sequence-level code has one branch for each.
_STACK_NDIM = {SCALAR: 1, FOURIER_DIAGONAL: 2, MATRIX: 3}


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


def _width(stack: np.ndarray) -> int:
    """Side p of dense coefficients, or number of folded diagonal entries."""
    return stack.shape[1] if stack.ndim > 1 else 1


def _rowdot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x[l] . w`` for every row, each one BLAS dot as ``np.dot`` computes it
    (``x @ w`` goes through gemv and can differ in the last bit)."""
    return (x[:, None, :] @ w)[:, 0]


def _traces(stack: np.ndarray) -> np.ndarray:
    if stack.ndim == 3:
        return np.trace(stack, axis1=1, axis2=2)
    v = stack.reshape(stack.shape[0], -1)
    return _rowdot(v, fold_multiplicities(v.shape[1]))


def _min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    if stack.ndim == 3:
        return np.linalg.eigvalsh(stack)[:, 0]
    return stack.reshape(stack.shape[0], -1).min(axis=1)


def _quadratic_forms(stack: np.ndarray, u) -> np.ndarray:
    """``<b_l u, u>`` per degree; diagonal stacks take a folded ``u`` and
    carry the fold multiplicities."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    width = _width(stack)
    if u.shape != (width,):
        raise ValueError(f"direction must have length {width}, got shape {u.shape}")
    if stack.ndim == 3:
        return _rowdot(u @ stack, u)
    v = stack.reshape(stack.shape[0], -1)
    return _rowdot(v * fold_multiplicities(width), u ** 2)


def _reject(bad: np.ndarray, message) -> None:
    """Raise ``ValueError(message(l))`` for the first degree l flagged in bad."""
    if np.any(bad):
        raise ValueError(message(int(np.argmax(bad))))


def _checked_stack(variant: str, stack) -> np.ndarray:
    """Validate coefficients of one variant stacked along the degree axis and
    return them as a new read-only array.

    Every entry must be finite.  Diagonal entries must be >= 0; dense
    coefficients must be symmetric within ``_SYM_RTOL`` (relative, Frobenius)
    and PSD within ``PSD_RTOL * trace``, and are returned symmetrized.
    Errors name the first failing degree.
    """
    if variant not in _STACK_NDIM:
        raise ValueError(f"unknown variant {variant!r}")
    s = np.asarray(stack, dtype=float)
    if (s.ndim != _STACK_NDIM[variant] or 0 in s.shape
            or (s.ndim == 3 and s.shape[1] != s.shape[2])):
        raise ValueError(f"{variant} coefficients must stack to a nonempty "
                         f"{_STACK_NDIM[variant]}-d array (matrices square), "
                         f"got shape {s.shape}")
    flat = s.reshape(s.shape[0], -1)
    _reject(~np.all(np.isfinite(flat), axis=1),
            lambda l: f"{variant} coefficient b_{l} must be finite")
    if s.ndim == 3:
        asym = np.linalg.norm(s - s.swapaxes(1, 2), axis=(1, 2))
        _reject(asym > _SYM_RTOL * np.linalg.norm(s, axis=(1, 2)),
                lambda l: f"matrix coefficient b_{l} must be symmetric within 1e-12")
        s = 0.5 * (s + s.swapaxes(1, 2))
        tr = _traces(s)
        w0 = _min_eigenvalues(s)
        _reject(w0 < -PSD_RTOL * np.maximum(tr, 0.0),
                lambda l: f"matrix coefficient b_{l} must be PSD: min eigenvalue "
                          f"{w0[l]:.3e} below -{PSD_RTOL:g} * trace ({tr[l]:.3e})")
    else:
        _reject(np.any(flat < 0.0, axis=1),
                lambda l: f"{variant} coefficient b_{l} must have entries >= 0")
        s = np.array(s)
    s.setflags(write=False)
    return s


@dataclass(frozen=True, eq=False)
class SchoenbergOperator:
    """One coefficient of a Schoenberg sequence (see module docstring).

    ``==`` compares values (kind and every entry); operators are unhashable.
    """

    kind: str
    data: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, SchoenbergOperator):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.data, other.data)

    @classmethod
    def scalar(cls, value: float) -> "SchoenbergOperator":
        # [0, ...] keeps a 0-d array (a plain [0] would give a numpy scalar)
        return cls(SCALAR, _checked_stack(SCALAR, [float(value)])[0, ...])

    @classmethod
    def matrix(cls, mat) -> "SchoenbergOperator":
        return cls(MATRIX, _checked_stack(MATRIX, np.asarray(mat, dtype=float)[None])[0])

    @classmethod
    def fourier_diagonal(cls, gammas) -> "SchoenbergOperator":
        g = np.asarray(gammas, dtype=float)[None]
        return cls(FOURIER_DIAGONAL, _checked_stack(FOURIER_DIAGONAL, g)[0])

    @property
    def dim(self) -> int:
        """Operator side: p for matrices, K_max + 1 folded entries, 1 for scalars."""
        return _width(self.data[None])

    def trace(self) -> float:
        return float(_traces(self.data[None])[0])

    def min_eigenvalue(self) -> float:
        return float(_min_eigenvalues(self.data[None])[0])

    def scaled(self, c: float) -> "SchoenbergOperator":
        if c < 0:
            raise ValueError("scale factor must be >= 0")
        return SchoenbergOperator(self.kind, _frozen(self.data * c))

    def quadratic_form(self, u) -> float:
        """``<b u, u>`` for a coefficient-space direction ``u``.

        For the fourier variant ``u`` is folded (length K_max + 1) and the
        form carries the fold multiplicities.
        """
        return float(_quadratic_forms(self.data[None], u)[0])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def operator_sqrt(op: SchoenbergOperator) -> SchoenbergOperator:
    """PSD square root; negative eigenvalue dust is clamped to zero."""
    if op.kind != MATRIX:
        return SchoenbergOperator(op.kind, _frozen(np.sqrt(np.clip(op.data, 0.0, None))))
    w, v = np.linalg.eigh(op.data)
    w = np.clip(w, 0.0, None)
    return SchoenbergOperator(MATRIX, _frozen((v * np.sqrt(w)) @ v.T))


def operator_inv_sqrt(op: SchoenbergOperator) -> SchoenbergOperator:
    """Inverse square root ``b^{-1/2}`` of a strictly positive coefficient.

    Near-singular input (minimum eigenvalue <= STRICT_RTOL * trace) is
    rejected with conditioning diagnostics in the error message.
    """
    tr = op.trace()
    wmin = op.min_eigenvalue()
    if wmin <= STRICT_RTOL * tr or tr <= 0.0:
        cond = tr / wmin if wmin > 0 else math.inf
        raise ValueError(
            f"coefficient is not strictly positive: min eigenvalue {wmin:.6e}, "
            f"trace {tr:.6e}, trace/min ratio {cond:.3e} "
            f"(threshold rtol={STRICT_RTOL:g})")
    if op.kind != MATRIX:
        return SchoenbergOperator(op.kind, _frozen(1.0 / np.sqrt(op.data)))
    w, v = np.linalg.eigh(op.data)
    return SchoenbergOperator(MATRIX, _frozen((v / np.sqrt(w)) @ v.T))


def hs_distance_to_identity(op: SchoenbergOperator) -> float:
    """Squared Hilbert-Schmidt norm ``||op - I||^2``.

    Frobenius for the matrix variant; the fourier variant sums
    ``mult_k (gamma_k - 1)^2`` over folded entries.
    """
    if op.kind != MATRIX:
        return float(np.dot(fold_multiplicities(op.dim), np.atleast_1d(op.data - 1.0) ** 2))
    diff = op.data - np.eye(op.dim)
    return float(np.sum(diff * diff))


# ---------------------------------------------------------------------------
# Tail descriptors
# ---------------------------------------------------------------------------


class TailDescriptor:
    """Closed-form upper bound on ``sum_{l > L} trace(b_l) C_l^lam(1)``."""

    kind: str = "base"

    def trace_tail_bound(self, l_from: int) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricTail(TailDescriptor):
    """Tail of terms ``c_i * binom(n + d - 2, n) * ratio_i^n`` summed over i.

    The term ratio ``ratio * (n + d - 1) / (n + 1)`` is decreasing in n, so
    the tail beyond L is bounded by the (L+1)-th term times the geometric
    closure at that ratio.
    """

    coefficients: tuple
    ratios: tuple
    d: int
    kind: str = field(default="geometric", init=False)

    def trace_tail_bound(self, l_from: int) -> float:
        total = 0.0
        n = l_from + 1
        for c, a in zip(self.coefficients, self.ratios):
            if c == 0.0:
                continue
            if not 0.0 < a < 1.0:
                return math.inf
            r = a * (n + self.d - 1.0) / (n + 1.0)
            if r >= 1.0:
                return math.inf
            if self.d >= 2:
                log_binom = (math.lgamma(n + self.d - 1.0) - math.lgamma(n + 1.0)
                             - math.lgamma(self.d - 1.0))
            else:
                log_binom = -math.inf  # family degenerates on the circle
            log_term = math.log(c) + log_binom + n * math.log(a)
            total += math.exp(log_term) / (1.0 - r)
        return total

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "params": {"coefficients": list(self.coefficients),
                           "ratios": list(self.ratios), "d": self.d}}


@dataclass(frozen=True)
class PowerLawTail(TailDescriptor):
    """Integral tail bound for spectra ``sigma^2 / (h(l) (alpha + k^2 + l^2)^{nu + 1/2})``.

    Uses ``sum_{k>=1} (alpha + k^2 + l^2)^{-nu-1/2} <= c_nu/2 (alpha + l^2)^{-nu}``
    with ``c_nu = sqrt(pi) Gamma(nu) / Gamma(nu + 1/2)`` and then the integral
    comparison in l, giving decay exponent ``2 nu + 1`` per degree.
    """

    sigma: float
    alpha: float
    nu: float
    kind: str = field(default="power_law", init=False)

    def trace_tail_bound(self, l_from: int) -> float:
        s2 = self.sigma ** 2
        nu = self.nu
        c_nu = math.sqrt(math.pi) * math.gamma(nu) / math.gamma(nu + 0.5)
        L = max(l_from, 1)
        bound = 0.5 * s2 * (L ** -(2 * nu + 1) / (2 * nu + 1)
                            + c_nu * L ** -(2 * nu) / (2 * nu))
        if l_from < 1:
            # add a majorant of the l = 1 term itself
            bound += 0.5 * s2 * (1.0 + c_nu)
        return bound

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "params": {"sigma": self.sigma, "alpha": self.alpha, "nu": self.nu}}


def tail_from_dict(obj) -> TailDescriptor | None:
    if obj is None:
        return None
    kind = obj["kind"]
    p = obj["params"]
    if kind == "geometric":
        return GeometricTail(tuple(p["coefficients"]), tuple(p["ratios"]), int(p["d"]))
    if kind == "power_law":
        return PowerLawTail(float(p["sigma"]), float(p["alpha"]), float(p["nu"]))
    raise ValueError(f"unknown tail descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SchoenbergSequence:
    """Dimension d plus the ordered coefficients ``b_0 .. b_{L_max}``.

    The coefficients are stored once, as a read-only stack with the degree
    axis first: ``(L+1,)`` scalar, ``(L+1, p, p)`` matrix, ``(L+1, K+1)``
    fourier (see :meth:`coeff_stack`).  ``coeffs`` holds per-degree
    :class:`SchoenbergOperator` views of that stack.  ``==`` compares
    values (d, variant, tail and every stacked entry); sequences are
    unhashable.
    """

    d: int
    coeffs: tuple
    tail: TailDescriptor | None = None
    _variant: str | None = field(default=None, init=False, repr=False)
    _stack: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("sequence must contain at least one coefficient")
        kind = coeffs[0].kind
        dim = coeffs[0].dim
        for l, op in enumerate(coeffs):
            if op.kind != kind or op.dim != dim:
                raise ValueError(
                    f"heterogeneous sequence: coefficient {l} has variant "
                    f"{op.kind}/{op.dim}, expected {kind}/{dim}")
        self._bind(kind, _frozen(np.stack([op.data for op in coeffs])))

    @classmethod
    def from_stack(cls, d: int, variant: str, stack,
                   tail: TailDescriptor | None = None) -> "SchoenbergSequence":
        """Sequence from coefficients stacked along the degree axis, checked
        in one batched pass (finite, symmetric and PSD; errors name the
        first failing degree)."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "d", d)
        object.__setattr__(seq, "tail", tail)
        seq._bind(variant, _checked_stack(variant, stack))
        return seq

    def _bind(self, variant: str, stack: np.ndarray) -> None:
        if self.d < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.d}")
        object.__setattr__(self, "_variant", variant)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "coeffs", tuple(
            SchoenbergOperator(variant, stack[l, ...]) for l in range(stack.shape[0])))

    def __eq__(self, other):
        if not isinstance(other, SchoenbergSequence):
            return NotImplemented
        return (self.d == other.d and self.variant == other.variant
                and self.tail == other.tail
                and np.array_equal(self._stack, other._stack))

    @property
    def variant(self) -> str:
        return self._variant

    @property
    def dim(self) -> int:
        return _width(self._stack)

    @property
    def l_max(self) -> int:
        return self._stack.shape[0] - 1

    @property
    def order(self) -> float:
        return gegenbauer_order(self.d)

    def coeff_stack(self) -> np.ndarray:
        """The read-only coefficient stack, degree axis first."""
        return self._stack

    def quadratic_forms(self, u) -> np.ndarray:
        """``<b_l u, u>`` per degree (see :meth:`SchoenbergOperator.quadratic_form`)."""
        return _quadratic_forms(self._stack, u)

    def trace_terms(self) -> np.ndarray:
        """Per-degree variance contributions ``trace(b_l) C_l^lam(1)``."""
        c1 = gegenbauer_at_one_all(self.order, self.l_max)
        return _traces(self._stack) * c1


@dataclass(frozen=True)
class ValidityReport:
    """Per-degree diagnostics from :func:`validate_sequence`."""

    d: int
    variant: str
    l_max: int
    traces: np.ndarray
    min_eig_ratios: np.ndarray
    weighted_partial_sums: np.ndarray
    tail_estimate: float | None
    tail_is_heuristic: bool
    psd_valid: bool
    strictly_positive: bool
    flags: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "variant": self.variant,
            "L_max": self.l_max,
            "traces": self.traces.tolist(),
            "min_eig_ratios": self.min_eig_ratios.tolist(),
            "weighted_partial_sums": self.weighted_partial_sums.tolist(),
            "tail_estimate": self.tail_estimate,
            "tail_is_heuristic": self.tail_is_heuristic,
            "psd_valid": self.psd_valid,
            "strictly_positive": self.strictly_positive,
            "flags": list(self.flags),
            "passed": self.passed,
        }


def validate_sequence(seq: SchoenbergSequence) -> ValidityReport:
    """PSD margins, traces, weighted-trace partial sums, and tail estimate.

    ``passed`` requires both PSD validity and strict positivity of every
    coefficient; PSD-only sequences remain usable for sampling but are not
    equivalence-eligible, which is reported through the separate flags.
    """
    traces = _traces(seq.coeff_stack())
    mins = _min_eigenvalues(seq.coeff_stack())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(traces > 0, mins / np.where(traces > 0, traces, 1.0), 0.0)
    psd_valid = bool(np.all(mins >= -PSD_RTOL * np.maximum(traces, 0.0)))
    strictly_positive = bool(np.all(mins > STRICT_RTOL * traces))

    omega = surface_measure(seq.d)
    weighted = omega * seq.trace_terms()
    partial = np.cumsum(weighted)

    flags = []
    if not psd_valid:
        flags.append("not positive semi-definite")
    if not strictly_positive:
        flags.append("not strictly positive")
    if not np.all(np.isfinite(partial)):
        flags.append("weighted trace not finite")

    if seq.tail is not None:
        tail_estimate = omega * seq.tail.trace_tail_bound(seq.l_max)
        heuristic = False
    elif seq.l_max >= 1:
        tail_estimate = float(weighted[-1])
        heuristic = True
        flags.append("tail estimate is a last-term heuristic")
    else:
        tail_estimate = None
        heuristic = True

    passed = psd_valid and strictly_positive and np.all(np.isfinite(partial))
    return ValidityReport(
        d=seq.d, variant=seq.variant, l_max=seq.l_max,
        traces=traces, min_eig_ratios=ratios, weighted_partial_sums=partial,
        tail_estimate=tail_estimate, tail_is_heuristic=heuristic,
        psd_valid=psd_valid, strictly_positive=strictly_positive,
        flags=tuple(flags), passed=bool(passed))


@dataclass(frozen=True)
class KernelValue:
    """One kernel evaluation with its truncation-error bound."""

    value: SchoenbergOperator
    tail_bound: float
    tail_is_heuristic: bool


class IsotropicKernel:
    """Evaluator for ``R(t) = sum_{l <= L_max} b_l C_l^lam(t)``.

    The reported tail bound dominates ``sum_{l > L_max} trace(b_l) C_l^lam(1)``
    (an upper bound on the dropped terms in trace norm, uniform in t since
    ``|C_l(t)| <= C_l(1)``).  Without a tail descriptor the last computed
    term is reported instead and flagged as heuristic.
    """

    def __init__(self, seq: SchoenbergSequence):
        self.seq = seq
        self._stack = seq.coeff_stack()
        self._order = seq.order
        if seq.tail is not None:
            self._tail_bound = seq.tail.trace_tail_bound(seq.l_max)
            self._tail_heuristic = False
        else:
            terms = seq.trace_terms()
            self._tail_bound = float(terms[-1]) if seq.l_max >= 1 else 0.0
            self._tail_heuristic = True

    @property
    def tail_bound(self) -> float:
        return self._tail_bound

    @property
    def tail_is_heuristic(self) -> bool:
        return self._tail_heuristic

    def evaluate_stack(self, ts) -> np.ndarray:
        """Raw kernel values for an array of ts, shape ``(len(ts),) + coeff shape``."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        c = gegenbauer_all(self._order, self.seq.l_max, ts)  # (L+1, nt)
        return np.tensordot(np.moveaxis(c, 0, -1), self._stack, axes=([-1], [0]))

    def __call__(self, t: float) -> KernelValue:
        vals = self.evaluate_stack([float(t)])[0]
        if self.seq.variant == MATRIX:
            vals = 0.5 * (vals + vals.T)
        op = SchoenbergOperator(self.seq.variant, _frozen(vals))
        return KernelValue(op, self._tail_bound, self._tail_heuristic)

    def trace_at_one(self) -> float:
        """Field variance ``trace R(x, x) = sum_l trace(b_l) C_l^lam(1)`` (truncated)."""
        return float(np.sum(self.seq.trace_terms()))


def entry_labels(seq: SchoenbergSequence) -> list:
    """Labels of the entries of one coefficient in ``ravel`` order: ``R[i][j]``
    for matrices, ``gamma[k]`` for folded fourier entries, ``R`` for scalars."""
    if seq.variant == MATRIX:
        return [f"R[{i}][{j}]" for i in range(seq.dim) for j in range(seq.dim)]
    if seq.variant == FOURIER_DIAGONAL:
        return [f"gamma[{k}]" for k in range(seq.dim)]
    return ["R"]


def truncate_sequence(seq: SchoenbergSequence, l_max: int) -> SchoenbergSequence:
    """Drop degrees above l_max; the tail descriptor (a bound valid for any
    starting degree) is carried over."""
    if not 0 <= l_max <= seq.l_max:
        raise ValueError(f"l_max must lie in [0, {seq.l_max}], got {l_max}")
    return SchoenbergSequence.from_stack(seq.d, seq.variant,
                                         seq.coeff_stack()[:l_max + 1], seq.tail)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sequence_to_dict(seq: SchoenbergSequence) -> dict:
    return {
        "d": seq.d,
        "variant": seq.variant,
        "L_max": seq.l_max,
        "coeffs": seq.coeff_stack().tolist(),  # row-major nested lists
        "tail": seq.tail.to_dict() if seq.tail is not None else None,
    }


def sequence_from_dict(obj: dict) -> SchoenbergSequence:
    seq = SchoenbergSequence.from_stack(int(obj["d"]), obj["variant"], obj["coeffs"],
                                        tail_from_dict(obj.get("tail")))
    if seq.l_max != obj["L_max"]:
        raise ValueError("coefficient count does not match L_max")
    return seq


def save_sequence(seq: SchoenbergSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=1)


def load_sequence(path) -> SchoenbergSequence:
    with open(path) as fh:
        return sequence_from_dict(json.load(fh))
