"""Equivalence-vs-orthogonality diagnostics for pairs of Gaussian fields.

Two zero-mean isotropic Gaussian fields with strictly positive Schoenberg
sequences ``{b_l^(1)}`` and ``{b_l^(2)}`` induce equivalent measures iff

    sum_l h(l) || (b_l^(2))^{-1/2} b_l^(1) (b_l^(2))^{-1/2} - I ||_HS^2 < inf,

and orthogonal measures otherwise (Gaussian dichotomy); the reference must
pass :func:`schoenberg.strict_positivity`.  This module computes the terms,
scalar marginalizations along u, a three-valued numeric classifier for
truncated series, and closed-form classifiers for the two model families.

Orientation: sequence 2 is the reference throughout -- functional terms
conjugate by ``(b_l^(2))^{-1/2}`` and scalar terms use the ratio
``<b_l^(1) u, u> / <b_l^(2) u, u>``.  With this pairing every scalar term is
dominated by the matching functional term (Cauchy-Schwarz), a tested
invariant.  Swapping the roles changes per-degree values but not summability,
so verdicts are orientation-free.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .harmonics import h_dim
from .models import (
    LegendreMaternParams,
    MultiquadraticParams,
    multiquadratic_validity,
)
from .schoenberg import (
    SCALAR,
    SchoenbergSequence,
    _quadratic_forms,
    _reject,
    check_compatible,
    fold_multiplicities,
    one_degree_stack,
    strict_positivity,
    truncate_sequence,
)

EQUIVALENT = "equivalent"
ORTHOGONAL = "orthogonal"
INCONCLUSIVE = "inconclusive"

CLOSED_FORM = "closed_form"
NUMERIC = "numeric"

_MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class VerdictPolicy:
    """Thresholds for the numeric classifier.

    The classifier is a heuristic probe of a truncated series; it is
    three-valued on purpose and never overrides a closed-form verdict.
    """

    decay_margin: float = 0.2
    cauchy_eps: float = 1e-6
    nonvanishing_floor: float = 1e-8
    min_terms: int = 32

    def to_dict(self) -> dict:
        return {"decay_margin": self.decay_margin, "cauchy_eps": self.cauchy_eps,
                "nonvanishing_floor": self.nonvanishing_floor,
                "min_terms": self.min_terms}


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str
    provenance: str
    diagnostics: str = ""

    def __post_init__(self):
        if self.verdict not in (EQUIVALENT, ORTHOGONAL, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.provenance not in (CLOSED_FORM, NUMERIC):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == CLOSED_FORM and self.verdict == INCONCLUSIVE:
            raise ValueError("closed-form verdicts are never inconclusive")

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "provenance": self.provenance,
                "diagnostics": self.diagnostics}


@dataclass
class EquivalenceTermSeries:
    """Per-degree terms t_l, partial sums, and a tail decay-exponent fit."""

    degrees: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    decay_fit: float
    window: tuple

    def to_dict(self) -> dict:
        fit = self.decay_fit

        def clean(values):
            return [v if math.isfinite(v) else None for v in values.tolist()]

        return {
            "degrees": self.degrees.tolist(),
            "terms": clean(self.terms),
            "partial_sums": clean(self.partial_sums),
            "decay_fit": fit if math.isfinite(fit) else None,
            "window": list(self.window),
        }


_EPS = float(np.finfo(float).eps)


def _conjugated_distances(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``||(b2)^{-1/2} b1 (b2)^{-1/2} - I||_HS^2`` for every degree of two
    coefficient stacks (degree axis first), b2 the strictly positive reference.

    Diagonal stacks (scalar or folded fourier) give
    ``sum_k mult_k (b1_k / b2_k - 1)^2``.  For dense stacks the value equals
    ``sum_i (mu_i - 1)^2`` over the generalized eigenvalues of the pencil
    (b1, b2), which are invariant under joint congruence, so both operators
    are first equilibrated by ``diag(b2)^{-1/2}``.  That keeps the
    computation well conditioned when diagonal entries decay at different
    geometric rates (high degrees of product families) and makes the result
    exactly invariant under common positive rescaling.  Distances below the
    resolution of the eigendecomposition-based conjugation -- an
    O((eps * cond)^2) floor -- are reported as exact zeros; anything smaller
    is indistinguishable from zero at double precision.  Errors name the
    first degree whose reference fails :func:`schoenberg.strict_positivity`.
    """
    bad, why = strict_positivity(v2)
    _reject(bad, lambda l: f"second coefficient must be strictly positive "
                           f"(degree {l}: {why(l)})")
    if v2.ndim < 3:
        g1 = v1.reshape(v1.shape[0], -1)
        g2 = v2.reshape(v2.shape[0], -1)
        return (g1 / g2 - 1.0) ** 2 @ fold_multiplicities(g2.shape[1])
    p = v2.shape[1]
    scale = 1.0 / np.sqrt(np.diagonal(v2, axis1=1, axis2=2))
    B1 = scale[:, :, None] * v1 * scale[:, None, :]
    B2 = scale[:, :, None] * v2 * scale[:, None, :]  # unit diagonal
    w, v = np.linalg.eigh(B2)
    lo, hi = w[:, 0], w[:, -1]
    s = (v / np.sqrt(w)[:, None, :]) @ v.swapaxes(1, 2)
    m = s @ B1 @ s
    diff = m - np.eye(p)
    dist = np.sum(diff * diff, axis=(1, 2))
    noise_floor = p * (64.0 * _EPS * hi / lo) ** 2
    return np.where(dist <= noise_floor, 0.0, dist)


def hs_term(b1, b2, hl: int) -> float:
    """One functional series term ``hl * ||(b2)^{-1/2} b1 (b2)^{-1/2} - I||^2``
    of two coefficients given as arrays (see :func:`one_degree_stack`).

    b2 must be strictly positive.  The term is exactly invariant under common
    positive rescaling of the pair (tested property); see
    :func:`_conjugated_distances`, which this evaluates on one-degree stacks.
    """
    s1, s2 = one_degree_stack(b1), one_degree_stack(b2)
    if s1.shape != s2.shape:
        raise ValueError("coefficients must share variant and size")
    if hl <= 0:
        raise ValueError(f"eigenspace dimension must be positive, got {hl}")
    return hl * float(_conjugated_distances(s1, s2)[0])


def _common_length(seq1: SchoenbergSequence, seq2: SchoenbergSequence) -> tuple:
    """Two compatible sequences truncated to the shorter one's length."""
    check_compatible(seq1, seq2)
    L = min(seq1.l_max, seq2.l_max)
    return truncate_sequence(seq1, L), truncate_sequence(seq2, L)


def _degree_dims(seq: SchoenbergSequence) -> np.ndarray:
    """Eigenspace dimensions ``h(l)`` for ``l = 0 .. seq.l_max`` as floats."""
    return np.array([h_dim(seq.d, l) for l in range(seq.l_max + 1)], dtype=float)


def fit_decay_exponent(degrees: np.ndarray, terms: np.ndarray, window: tuple) -> float:
    """Least-squares slope of log t_l against log l over the window.

    Degrees below 1 and nonpositive terms are excluded; returns NaN when
    fewer than ``_MIN_FIT_POINTS`` usable points remain.
    """
    lo, hi = window
    mask = ((degrees >= max(lo, 1)) & (degrees <= hi) & (terms > 0.0)
            & np.isfinite(terms))
    if np.count_nonzero(mask) < _MIN_FIT_POINTS:
        return math.nan
    x = np.log(degrees[mask].astype(float))
    y = np.log(terms[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _make_series(terms: np.ndarray, fit_window) -> EquivalenceTermSeries:
    degrees = np.arange(terms.shape[0])
    l_max = terms.shape[0] - 1
    window = (l_max // 2, l_max) if fit_window is None else tuple(fit_window)
    return EquivalenceTermSeries(
        degrees=degrees, terms=terms, partial_sums=np.cumsum(terms),
        decay_fit=fit_decay_exponent(degrees, terms, window), window=window)


def functional_series(seq1: SchoenbergSequence, seq2: SchoenbergSequence,
                      fit_window: tuple | None = None) -> EquivalenceTermSeries:
    """Terms ``t_l = h(l) ||(b_l^(2))^{-1/2} b_l^(1) (b_l^(2))^{-1/2} - I||^2``
    up to the shorter sequence's ``l_max``, with partial sums and a log-log
    decay fit over the top half of the degrees (or an explicit
    ``fit_window``)."""
    seq1, seq2 = _common_length(seq1, seq2)
    dist = _conjugated_distances(seq1.coeffs, seq2.coeffs)
    return _make_series(_degree_dims(seq1) * dist, fit_window)


def project_sequence(seq: SchoenbergSequence, u) -> SchoenbergSequence:
    """Scalar Schoenberg sequence ``<b_l u, u>`` of the field projected on u."""
    u = np.asarray(u, dtype=float)
    if not np.linalg.norm(u) > 0.0:
        raise ValueError("direction u must be nonzero")
    return SchoenbergSequence(seq.d, SCALAR, seq.quadratic_forms(u))


def scalar_marginal_series(seq1: SchoenbergSequence, seq2: SchoenbergSequence, u,
                           fit_window: tuple | None = None) -> EquivalenceTermSeries:
    """Terms ``h(l) (<b_l^(1) u, u> / <b_l^(2) u, u> - 1)^2`` of the projected
    scalar fields (see :func:`project_sequence` for the projected sequences).

    Requires ``<b_l^(2) u, u> > 0`` up to the shorter sequence's ``l_max``.
    Each term is dominated by the matching functional term (tested
    invariant).
    """
    seq1, seq2 = _common_length(seq1, seq2)
    q1, q2 = (seq.quadratic_forms(u) for seq in (seq1, seq2))
    terms = _degree_dims(seq1) * _conjugated_distances(q1, q2)
    return _make_series(terms, fit_window)


def marginal_bound_check(b1, b2, u):
    """Both sides of ``|<(A - B) u, u>| / <B u, u>  <=  ||B^{-1/2} A B^{-1/2} - I||_HS``
    with ``B = b1`` (strictly positive) and ``A = b2``, two coefficients given
    as arrays (see :func:`one_degree_stack`).  Returns (lhs, rhs); the lhs
    is a scalar term, so ``<B u, u>`` must be > 0."""
    qb, qa = (_quadratic_forms(one_degree_stack(b), u) for b in (b1, b2))
    return math.sqrt(_conjugated_distances(qa, qb)[0]), math.sqrt(hs_term(b2, b1, 1))


def classify_numeric(series: EquivalenceTermSeries,
                     policy: VerdictPolicy = VerdictPolicy()) -> EquivalenceVerdict:
    """Three-valued verdict from a truncated term series.

    Equivalent requires a decay fit steeper than ``-1 - margin`` together
    with Cauchy partial sums; a fit shallower than ``-1 + margin`` (terms not
    vanishing fast enough, or not at all) is Orthogonal; anything in between
    or statistically unsettled is Inconclusive.  The non-vanishing floor is
    consulted only when no decay fit is available.
    """
    n = series.terms.shape[0]
    if n < policy.min_terms:
        raise ValueError(f"series has {n} terms; classifier needs >= {policy.min_terms}")
    lo, hi = series.window
    lo = max(0, min(lo, n - 1))
    hi = max(lo, min(hi, n - 1))
    tail = series.terms[lo:hi + 1]
    if not np.all(np.isfinite(tail)):
        return EquivalenceVerdict(
            ORTHOGONAL, NUMERIC,
            f"terms overflow the floating range inside window [{lo},{hi}]")
    s_hi = float(series.partial_sums[hi])
    s_lo = float(series.partial_sums[lo])
    rel_growth = (s_hi - s_lo) / s_hi if s_hi > 0.0 else 0.0
    cauchy_ok = rel_growth <= policy.cauchy_eps
    fit = series.decay_fit
    has_fit = math.isfinite(fit)
    floor = policy.nonvanishing_floor

    detail = (f"window=[{lo},{hi}] decay_fit="
              f"{fit:.4g} " if has_fit else f"window=[{lo},{hi}] decay_fit=n/a ")
    detail += f"tail_rel_growth={rel_growth:.3e} tail_max={float(np.max(tail)):.3e}"

    if s_hi == 0.0 or float(np.max(tail)) == 0.0:
        return EquivalenceVerdict(EQUIVALENT, NUMERIC,
                                  "all window terms vanish; " + detail)
    if has_fit and fit > -1.0 + policy.decay_margin:
        return EquivalenceVerdict(
            ORTHOGONAL, NUMERIC,
            f"terms decay like l^{fit:.3g}, too slow for summability; " + detail)
    if not has_fit and float(np.min(tail)) > floor:
        return EquivalenceVerdict(
            ORTHOGONAL, NUMERIC,
            "terms stay above the non-vanishing floor with no decay fit; " + detail)
    if cauchy_ok and ((has_fit and fit < -1.0 - policy.decay_margin)
                      or (not has_fit and float(np.max(tail)) <= floor)):
        return EquivalenceVerdict(
            EQUIVALENT, NUMERIC,
            "steep decay with Cauchy partial sums; " + detail)
    return EquivalenceVerdict(
        INCONCLUSIVE, NUMERIC,
        "decay near the summability boundary or partial sums unsettled; " + detail)


def classify_multiquadratic(p1: MultiquadraticParams,
                            p2: MultiquadraticParams) -> EquivalenceVerdict:
    """Closed-form classification of the multiquadratic family.

    Equivalent iff the marginal scales and marginal decay rates agree and
    either both cross rates lie strictly below ``sqrt(a11 a22)`` or the cross
    rate and cross correlation agree exactly (which covers the boundary case
    ``a12 = sqrt(a11 a22)`` with identical parameters); Orthogonal otherwise.
    """
    for p in (p1, p2):
        check = multiquadratic_validity(p)
        if not check.valid:
            raise ValueError(f"invalid multiquadratic parameters: {check.failing_condition}")
    if p1.d != p2.d:
        raise ValueError(f"sphere dimensions differ: {p1.d} vs {p2.d}")
    if p1.sigma != p2.sigma:
        return EquivalenceVerdict(ORTHOGONAL, CLOSED_FORM,
                                  "marginal scales differ (marginal criterion fails)")
    if p1.alpha[0] != p2.alpha[0] or p1.alpha[1] != p2.alpha[1]:
        return EquivalenceVerdict(ORTHOGONAL, CLOSED_FORM,
                                  "marginal decay rates differ (marginal criterion fails)")
    root = math.sqrt(p1.alpha[0] * p1.alpha[1])
    a12_1, a12_2 = p1.alpha[2], p2.alpha[2]
    if a12_1 < root and a12_2 < root:
        return EquivalenceVerdict(
            EQUIVALENT, CLOSED_FORM,
            "cross rates strictly below sqrt(a11 a22): cross terms decay "
            "geometrically and the series converges")
    if a12_1 == a12_2 and p1.rho12 == p2.rho12:
        return EquivalenceVerdict(EQUIVALENT, CLOSED_FORM,
                                  "identical parameters on the boundary case")
    return EquivalenceVerdict(
        ORTHOGONAL, CLOSED_FORM,
        "a cross rate sits on sqrt(a11 a22) with differing cross parameters; "
        "cross terms do not vanish")


def classify_legendre_matern(p1: LegendreMaternParams,
                             p2: LegendreMaternParams) -> EquivalenceVerdict:
    """Closed-form classification: Equivalent iff sigma and nu agree (alpha free)."""
    if p1.sigma == p2.sigma and p1.nu == p2.nu:
        return EquivalenceVerdict(
            EQUIVALENT, CLOSED_FORM,
            "equal scale and smoothness; the spectral ratio tends to 1 fast "
            "enough for summability regardless of alpha")
    which = "scale" if p1.sigma != p2.sigma else "smoothness"
    return EquivalenceVerdict(
        ORTHOGONAL, CLOSED_FORM,
        f"{which} parameters differ; the spectral ratio does not tend to 1")


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def report_to_dict(series: EquivalenceTermSeries, verdicts: list[EquivalenceVerdict],
                   policy: VerdictPolicy) -> dict:
    out = series.to_dict()
    out["verdicts"] = [v.to_dict() for v in verdicts]
    out["policy"] = policy.to_dict()
    return out


def write_series_csv(path, series: EquivalenceTermSeries) -> None:
    """CSV with fixed column order (l, term, partial_sum)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["l", "term", "partial_sum"])
        for l, t, s in zip(series.degrees, series.terms, series.partial_sums):
            w.writerow([int(l), repr(float(t)), repr(float(s))])
