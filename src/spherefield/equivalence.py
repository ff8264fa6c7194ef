"""Equivalence-vs-orthogonality diagnostics for pairs of Gaussian fields.

Two zero-mean isotropic Gaussian fields with strictly positive Schoenberg
sequences ``{b_l^(1)}`` and ``{b_l^(2)}`` induce equivalent measures iff

    sum_l h(l) || (b_l^(2))^{-1/2} (b_l^(1) - b_l^(2)) (b_l^(2))^{-1/2} ||_HS^2 < inf,

and orthogonal measures otherwise (Gaussian dichotomy); the reference must
pass :func:`schoenberg.strict_positivity`.  This module computes the terms
``t_0 .. t_L`` of a truncated series as one float64 array, scalar
marginalizations along u, a three-valued numeric classifier that reads the
terms over the window ``(L // 2, L)``, and closed-form classifiers for the
two model families.  The terms of two sequences are read in degree blocks;
for two Legendre-Matern models, whose operators are the diagonal spectrum
rows ``gamma_{l,.}``, :func:`legendre_matern_series` builds each block of
the spectra where it is read, so neither sequence is ever built.

Orientation: sequence 2 is the reference throughout -- functional terms
conjugate by ``(b_l^(2))^{-1/2}`` and scalar terms use the ratio
``<b_l^(1) u, u> / <b_l^(2) u, u>``.  With this pairing every scalar term is
dominated by the matching functional term (Cauchy-Schwarz), a tested
invariant.  Swapping the roles changes per-degree values but not summability,
so verdicts are orientation-free.
"""

from __future__ import annotations

import math

import numpy as np

from ._memory import require_fit
from .harmonics import h_dim
from .models import (
    LegendreMaternParams,
    MultiquadraticParams,
    legendre_matern_gamma_rows,
    multiquadratic_validity,
)
from .schoenberg import (
    SchoenbergSequence,
    check_compatible,
    checked_stack,
    fold_multiplicities,
    json_finite,
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

# Thresholds of the numeric classifier, a heuristic probe of a truncated
# series: it is three-valued on purpose and never overrides a closed-form
# verdict.
DECAY_MARGIN = 0.2
CAUCHY_EPS = 1e-6
NONVANISHING_FLOOR = 1e-8
MIN_TERMS = 32


def _verdict(verdict: str, provenance: str, diagnostics: str) -> dict:
    """A verdict as the ``verdicts`` item of the equivalence report."""
    return {"verdict": verdict, "provenance": provenance,
            "diagnostics": diagnostics}


# Elements of one degree block of _conjugated_distances (1 MiB of float64).
_BLOCK_ELEMS = 1 << 17


def _degree_blocks(n_rows: int, row_elems: int) -> list:
    """Slices of ``n_rows`` degrees into blocks of ``_BLOCK_ELEMS // row_elems``
    rows, the last one shorter.  A block has at least 8 rows, which bounds
    the number of blocks at wide rows and sets the size of the block pair
    that :func:`legendre_matern_series` refuses a huge ``k_max`` on."""
    step = max(8, _BLOCK_ELEMS // row_elems)
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


def _dense_distances(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The distances of :func:`_conjugated_distances` for dense stacks whose
    reference is strictly positive."""
    scale = 1.0 / np.sqrt(np.diagonal(v2, axis1=1, axis2=2))
    D = scale[:, :, None] * (v1 - v2) * scale[:, None, :]
    B2 = scale[:, :, None] * v2 * scale[:, None, :]  # unit diagonal
    w, v = np.linalg.eigh(B2)
    s = (v / np.sqrt(w)[:, None, :]) @ v.swapaxes(1, 2)
    m = s @ D @ s
    return np.sum(m * m, axis=(1, 2))


def _require_strictly_positive(v2: np.ndarray, first: int = 0) -> None:
    """Raise ``ValueError`` naming the first degree of the reference stack
    whose coefficient fails :func:`schoenberg.strict_positivity`, counting
    its first row as degree ``first``."""
    bad, why = strict_positivity(v2)
    if np.any(bad):
        l = int(np.argmax(bad))
        raise ValueError(f"second coefficient must be strictly positive "
                         f"(degree {first + l}: {why(l)})")


@np.errstate(over="ignore")
def _diagonal_distances(g1: np.ndarray, g2: np.ndarray,
                        mult: np.ndarray) -> np.ndarray:
    """``sum_k mult_k (g1_k / g2_k - 1)^2`` for every row of one degree block
    of two diagonal stacks (one row per degree), each row summed by numpy's
    pairwise reduction, so its bits depend on that row alone."""
    q = g1 / g2
    q -= 1.0
    q *= q
    q *= mult
    return np.add.reduce(q, axis=1)


@np.errstate(over="ignore")
def _conjugated_distances(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``||(b2)^{-1/2} (b1 - b2) (b2)^{-1/2}||_HS^2`` for every degree of two
    coefficient stacks (degree axis first), b2 the strictly positive reference.

    Both are read in degree blocks of about ``_BLOCK_ELEMS`` elements
    (:func:`_degree_blocks`), so the work space is one block, not a stack,
    and the blocks do not move a bit: every degree is computed from its own
    rows only (the dense branch is batched per degree, the diagonal branch
    sums each row by :func:`_diagonal_distances`).

    Diagonal stacks (scalar or folded fourier) give
    ``sum_k mult_k (b1_k / b2_k - 1)^2``.  For dense stacks the value equals
    ``sum_i (mu_i - 1)^2`` over the generalized eigenvalues of the pencil
    (b1, b2), which are invariant under joint congruence, so ``b1 - b2`` and
    b2 are first equilibrated by ``diag(b2)^{-1/2}`` and the difference is
    then conjugated by the eigendecomposition's ``(b2)^{-1/2}``.  That keeps
    the computation well conditioned when diagonal entries decay at different
    geometric rates (high degrees of product families) and makes the result
    invariant under common positive rescaling to within 1e-12 (acceptance
    criterion 9).  Entries that agree subtract exactly, so equal degrees
    still give exactly 0.  A distance beyond float64 is ``inf``, without a
    warning.  Errors name the first degree whose reference fails
    :func:`schoenberg.strict_positivity`.
    """
    _require_strictly_positive(v2)
    dist = np.empty(v2.shape[0])
    if v2.ndim < 3:
        g1 = v1.reshape(v1.shape[0], -1)
        g2 = v2.reshape(v2.shape[0], -1)
        mult = fold_multiplicities(g2.shape[1])
        for b in _degree_blocks(*g2.shape):
            dist[b] = _diagonal_distances(g1[b], g2[b], mult)
        return dist
    for b in _degree_blocks(v2.shape[0], v2.shape[1] ** 2):
        dist[b] = _dense_distances(v1[b], v2[b])
    return dist


def hs_term(b1, b2, hl: int) -> float:
    """One functional series term ``hl * ||(b2)^{-1/2} (b1 - b2) (b2)^{-1/2}||^2``
    of two coefficients given as arrays (see :func:`one_degree_stack`).

    b2 must be strictly positive.  The term is invariant under common
    positive rescaling of the pair to within 1e-12 (acceptance criterion 9); see
    :func:`_conjugated_distances`, which this evaluates on one-degree stacks.
    """
    s1, s2 = one_degree_stack(b1), one_degree_stack(b2)
    if s1.shape != s2.shape:
        raise ValueError("coefficients must share variant and size")
    if hl <= 0:
        raise ValueError(f"eigenspace dimension must be positive, got {hl}")
    return hl * float(_conjugated_distances(s1, s2)[0])


def _degree_terms(d: int, dist: np.ndarray) -> np.ndarray:
    """Series terms ``h(l) * dist[l]`` on S^d for every degree l of dist.

    Where the integer ``h(l)`` is beyond float64 (large d) the term is
    ``exp(log h(l) + log dist[l])``, so it overflows only where its value
    does, and a zero distance gives 0; elsewhere it is the plain product.
    An overflow gives ``inf`` without a warning.
    """
    h = np.zeros_like(dist)
    beyond = {}                            # degree -> h(l) beyond float64
    for l in range(dist.shape[0]):
        n = h_dim(d, l)
        try:
            h[l] = n
        except OverflowError:
            beyond[l] = n
    with np.errstate(over="ignore"):
        terms = np.multiply(h, dist, out=np.zeros_like(dist), where=h > 0.0)
        for l, n in beyond.items():
            if dist[l] != 0.0:
                terms[l] = np.exp(math.log(n) + np.log(dist[l]))
    return terms


def _window(terms: np.ndarray) -> tuple:
    """The degrees ``(L // 2, L)`` of the tail of terms ``t_0 .. t_L``."""
    l_max = terms.shape[0] - 1
    return l_max // 2, l_max


def _partial_sums(terms: np.ndarray) -> np.ndarray:
    """Cumulative sums of the terms; a sum beyond float64 is ``inf``, without
    a warning."""
    with np.errstate(over="ignore"):
        return np.cumsum(terms)


def fit_decay_exponent(terms: np.ndarray) -> float:
    """Least-squares slope of log t_l against log l over the window
    ``(L // 2, L)`` of the terms ``t_0 .. t_L``.

    Degree 0, nonpositive and non-finite terms are excluded; returns NaN
    when fewer than ``_MIN_FIT_POINTS`` usable points remain.
    """
    lo = max(_window(terms)[0], 1)
    tail = terms[lo:]
    mask = (tail > 0.0) & np.isfinite(tail)
    if np.count_nonzero(mask) < _MIN_FIT_POINTS:
        return math.nan
    x = np.log(np.arange(lo, terms.shape[0], dtype=float)[mask])
    y = np.log(tail[mask])
    return float(np.polyfit(x, y, 1)[0])


def functional_series(seq1: SchoenbergSequence,
                      seq2: SchoenbergSequence) -> np.ndarray:
    """Terms ``t_l = h(l) ||(b_l^(2))^{-1/2} (b_l^(1) - b_l^(2)) (b_l^(2))^{-1/2}||^2``
    for ``l = 0 .. L``, ``L`` the shorter sequence's ``l_max``, as one
    float64 array."""
    check_compatible(seq1, seq2)
    L = min(seq1.l_max, seq2.l_max)
    seq1, seq2 = truncate_sequence(seq1, L), truncate_sequence(seq2, L)
    return _degree_terms(seq1.d, _conjugated_distances(seq1.coeffs, seq2.coeffs))


def legendre_matern_series(p1: LegendreMaternParams,
                           p2: LegendreMaternParams) -> np.ndarray:
    """The terms of ``functional_series(build_sequence(p1),
    build_sequence(p2))``, bit for bit and with its errors, for two
    Legendre-Matern models of one ``k_max``, up to the smaller ``l_max``,
    computed without building either sequence.

    The spectra are built, checked and compared one degree block at a time
    (:func:`_degree_blocks`), so this holds a block of each and the
    ``L + 1`` distances, not two ``(L+1, K+1)`` stacks.  Each block
    runs the rules of building the two sequences in their order (the
    :func:`schoenberg.checked_stack` rules of ``p1``'s rows, then of
    ``p2``'s) and then the reference's strict positivity, and errors name
    the global degree.  That keeps the first error of the whole run because
    a spectrum can only fail a build rule at degree 0, in the first block:
    ``gamma_{0,0}`` is the one entry that can be ``inf``, and no gamma is
    negative.  Before anything of a block's size is allocated, two blocks
    must fit in memory (``MemoryError`` otherwise).
    """
    K = p1.k_max
    if p2.k_max != K:
        raise ValueError(f"models must share K_max, got {K} and {p2.k_max}")
    L = min(p1.l_max, p2.l_max)
    blocks = _degree_blocks(L + 1, K + 1)
    rows = max(b.stop - b.start for b in blocks)
    require_fit(2 * 8 * rows * (K + 1),
                f"a pair of {rows}-degree, frequency-{K} coefficient blocks")
    mult = fold_multiplicities(K + 1)
    dist = np.empty(L + 1)
    for b in blocks:
        g1, g2 = (checked_stack(legendre_matern_gamma_rows(p, b.start, b.stop), b.start)
                  for p in (p1, p2))
        _require_strictly_positive(g2, b.start)
        dist[b] = _diagonal_distances(g1, g2, mult)
        del g1, g2   # before the next pair is built
    return _degree_terms(2, dist)   # the family lives on S^2


def project_sequence(seq: SchoenbergSequence, u) -> SchoenbergSequence:
    """Scalar Schoenberg sequence ``<b_l u, u>`` of the field projected on u.

    A form below 0, eigenvalue dust that the PSD tolerance of a matrix
    coefficient admits, is 0."""
    u = np.asarray(u, dtype=float)
    if not np.linalg.norm(u) > 0.0:
        raise ValueError("direction u must be nonzero")
    return SchoenbergSequence(seq.d, np.maximum(seq.quadratic_forms(u), 0.0))


def scalar_marginal_series(seq1: SchoenbergSequence, seq2: SchoenbergSequence,
                           u) -> np.ndarray:
    """Terms ``h(l) (<b_l^(1) u, u> / <b_l^(2) u, u> - 1)^2`` of the projected
    scalar fields: the :func:`functional_series` of the two
    :func:`project_sequence` sequences, up to the shorter one's ``l_max``.

    Requires ``<b_l^(2) u, u> > 0`` there.  Each term is dominated by the
    matching functional term (tested invariant).
    """
    check_compatible(seq1, seq2)
    return functional_series(project_sequence(seq1, u), project_sequence(seq2, u))


def classify_numeric(terms: np.ndarray) -> dict:
    """Three-valued verdict from the terms ``t_0 .. t_L`` of a truncated
    series, read over the window ``(L // 2, L)``.

    Equivalent requires a decay fit steeper than ``-1 - DECAY_MARGIN``
    together with Cauchy partial sums; a fit shallower than
    ``-1 + DECAY_MARGIN`` (terms not vanishing fast enough, or not at all)
    is Orthogonal; anything in between or statistically unsettled is
    Inconclusive.  The non-vanishing floor is consulted only when no decay
    fit is available, which takes a window term that is not positive (a
    window of positive finite terms always has one).
    """
    n = terms.shape[0]
    if n < MIN_TERMS:
        raise ValueError(f"series has {n} terms; classifier needs >= {MIN_TERMS}")
    lo, hi = _window(terms)
    tail = terms[lo:hi + 1]
    if not np.all(np.isfinite(tail)):
        return _verdict(
            ORTHOGONAL, NUMERIC,
            f"terms overflow the floating range inside window [{lo},{hi}]")
    partial_sums = _partial_sums(terms)
    s_hi = float(partial_sums[hi])
    s_lo = float(partial_sums[lo])
    if not math.isfinite(s_hi):   # partial sums beyond float64
        rel_growth = math.inf
    else:
        rel_growth = (s_hi - s_lo) / s_hi if s_hi > 0.0 else 0.0
    cauchy_ok = rel_growth <= CAUCHY_EPS
    fit = fit_decay_exponent(terms)
    has_fit = math.isfinite(fit)

    detail = (f"window=[{lo},{hi}] decay_fit="
              f"{fit:.4g} " if has_fit else f"window=[{lo},{hi}] decay_fit=n/a ")
    detail += f"tail_rel_growth={rel_growth:.3e} tail_max={float(np.max(tail)):.3e}"

    if s_hi == 0.0 or float(np.max(tail)) == 0.0:
        return _verdict(EQUIVALENT, NUMERIC, "all window terms vanish; " + detail)
    if has_fit and fit > -1.0 + DECAY_MARGIN:
        return _verdict(
            ORTHOGONAL, NUMERIC,
            f"terms decay like l^{fit:.3g}, too slow for summability; " + detail)
    if cauchy_ok and ((has_fit and fit < -1.0 - DECAY_MARGIN)
                      or (not has_fit and float(np.max(tail)) <= NONVANISHING_FLOOR)):
        return _verdict(EQUIVALENT, NUMERIC,
                        "steep decay with Cauchy partial sums; " + detail)
    return _verdict(
        INCONCLUSIVE, NUMERIC,
        "decay near the summability boundary or partial sums unsettled; " + detail)


def classify_multiquadratic(p1: MultiquadraticParams,
                            p2: MultiquadraticParams) -> dict:
    """Closed-form classification of the multiquadratic family.

    Equivalent iff the marginal scales and marginal decay rates agree and
    either both cross rates lie strictly below ``sqrt(a11 a22)`` or the cross
    rate and cross correlation agree exactly (which covers the boundary case
    ``a12 = sqrt(a11 a22)`` with identical parameters); Orthogonal otherwise.
    """
    for p in (p1, p2):
        multiquadratic_validity(p)
    if p1.d != p2.d:
        raise ValueError(f"sphere dimensions differ: {p1.d} vs {p2.d}")
    if p1.sigma != p2.sigma:
        return _verdict(ORTHOGONAL, CLOSED_FORM,
                        "marginal scales differ (marginal criterion fails)")
    if p1.alpha[0] != p2.alpha[0] or p1.alpha[1] != p2.alpha[1]:
        return _verdict(ORTHOGONAL, CLOSED_FORM,
                        "marginal decay rates differ (marginal criterion fails)")
    root = math.sqrt(p1.alpha[0] * p1.alpha[1])
    a12_1, a12_2 = p1.alpha[2], p2.alpha[2]
    if a12_1 < root and a12_2 < root:
        return _verdict(
            EQUIVALENT, CLOSED_FORM,
            "cross rates strictly below sqrt(a11 a22): cross terms decay "
            "geometrically and the series converges")
    if a12_1 == a12_2 and p1.rho12 == p2.rho12:
        return _verdict(EQUIVALENT, CLOSED_FORM,
                        "identical parameters on the boundary case")
    return _verdict(
        ORTHOGONAL, CLOSED_FORM,
        "a cross rate sits on sqrt(a11 a22) with differing cross parameters; "
        "cross terms do not vanish")


def classify_legendre_matern(p1: LegendreMaternParams,
                             p2: LegendreMaternParams) -> dict:
    """Closed-form classification: Equivalent iff sigma and nu agree (alpha free)."""
    if p1.sigma == p2.sigma and p1.nu == p2.nu:
        return _verdict(
            EQUIVALENT, CLOSED_FORM,
            "equal scale and smoothness; the spectral ratio tends to 1 fast "
            "enough for summability regardless of alpha")
    which = "scale" if p1.sigma != p2.sigma else "smoothness"
    return _verdict(
        ORTHOGONAL, CLOSED_FORM,
        f"{which} parameters differ; the spectral ratio does not tend to 1")


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def report_to_dict(terms: np.ndarray, verdicts: list[dict]) -> dict:
    """The equivalence report of the terms ``t_0 .. t_L`` and their verdicts,
    listed as given."""
    return {
        "degrees": list(range(terms.shape[0])),
        "terms": json_finite(terms),
        "partial_sums": json_finite(_partial_sums(terms)),
        "decay_fit": json_finite(fit_decay_exponent(terms)),
        "window": list(_window(terms)),
        "verdicts": verdicts,
        "policy": {"decay_margin": DECAY_MARGIN, "cauchy_eps": CAUCHY_EPS,
                   "nonvanishing_floor": NONVANISHING_FLOOR,
                   "min_terms": MIN_TERMS},
    }


def write_series_csv(path, terms: np.ndarray) -> None:
    """CSV with fixed column order (l, term, partial_sum), written the way
    ``simulate.write_field_csv`` writes (``repr``, ``,``, ``\\r\\n``)."""
    rows = zip(terms.tolist(), _partial_sums(terms).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("l,term,partial_sum\r\n")
        fh.writelines(f"{l},{t!r},{s!r}\r\n" for l, (t, s) in enumerate(rows))
