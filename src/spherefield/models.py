"""Closed-form model families producing Schoenberg sequences.

Two families are implemented:

* the multiquadratic bivariate family on S^d, with geometric-decay 2 x 2
  matrix coefficients parameterized by marginal scales, a cross-correlation,
  and geodesic decay rates;
* the Legendre-Matern family on S^2, an operator family diagonal in the real
  Fourier basis of L^2([0,1]) with spectrum
  ``gamma_{l,k} = sigma^2 / ((2l+1) (alpha + k^2 + l^2)^{nu + 1/2})``.

The published multiquadratic coefficient formula

    b_n(i, j) = rho_ij sigma_i sigma_j binom(d+n-2, n) alpha_ij^n (1-alpha_ij)^{d-1}

expands the kernel in the Gegenbauer basis normalized at 1, i.e.
``sum_n b_n C_n(t)/C_n(1)`` equals the closed form
``rho sigma sigma (1-alpha)^{d-1} (1 + alpha^2 - 2 alpha t)^{-(d-1)/2}``.
:func:`build_sequence` therefore divides by ``C_n^lam(1) = binom(d+n-2, n)``
when materializing a :class:`SchoenbergSequence`, whose contract is the
unnormalized sum ``sum_n b_n C_n(t)``.  The conversion is the identity for
``d in {1, 2}`` and leaves every equivalence computation unchanged (the
criterion is invariant under per-degree positive rescaling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._memory import require_fit
from .schoenberg import SchoenbergSequence

DEFAULT_L_MAX = 200
DEFAULT_K_MAX = 200

# An angle may exceed pi by this much: a decimal pi written to ten places
# rounds above it.
THETA_SLACK = 1e-9

_FLOAT_MAX = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# The most terms a multiquadratic tail bound sums one by one, beyond the
# degrees it bounds from (see MultiquadraticParams._summed_tail).
_TAIL_TERMS = 1 << 12


@dataclass(frozen=True)
class MultiquadraticParams:
    """Parameters of the bivariate multiquadratic family on S^d.

    ``sigma = (sigma_1, sigma_2)`` are the marginal scales (each with a
    finite float64 square), ``rho12`` the cross-correlation in (0, 1), and
    ``alpha = (a_11, a_22, a_12)`` the geodesic decay rates, each in (0, 1).
    """

    d: int
    sigma: tuple
    rho12: float
    alpha: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.d}")
        if self.d > _FLOAT_MAX:
            raise ValueError(f"sphere dimension d must lie within float64 (below "
                             f"about 1.8e308), got {len(str(self.d))} digits")
        sigma = tuple(float(s) for s in self.sigma)
        alpha = tuple(float(a) for a in self.alpha)
        if len(sigma) != 2 or not all(s > 0.0 for s in sigma):
            raise ValueError(f"sigma must be two positive scales, got {self.sigma}")
        if not all(math.isfinite(s * s) for s in sigma):
            raise ValueError("sigma^2 must be a finite float64 (each sigma below "
                             f"about 1.34e154), got sigma = {self.sigma}")
        if len(alpha) != 3 or any(not 0.0 < a < 1.0 for a in alpha):
            raise ValueError(
                f"alpha must be (a11, a22, a12) each in (0, 1), got {self.alpha}")
        if not 0.0 < self.rho12 < 1.0:
            raise ValueError(f"rho12 must lie in (0, 1), got {self.rho12}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)

    def to_dict(self) -> dict:
        return {"model": "multiquadratic", "d": self.d, "sigma": list(self.sigma),
                "rho12": self.rho12, "alpha": list(self.alpha)}

    def _tail_terms(self):
        """``(c_i, a_ii)`` of the diagonal tails ``c_i binom(n + d - 2, n) a_ii^n``,
        with ``c_i = sigma_i^2 (1 - a_ii)^(d-1)``."""
        return [(s * s * (1.0 - a) ** (self.d - 1), a)
                for s, a in zip(self.sigma, self.alpha[:2])]

    def trace_tail_bound(self, l_from: int) -> float:
        """Upper bound on ``sum_{n > l_from} trace(b_n) C_n^lam(1)``, finite
        for every valid model.

        Each diagonal entry's terms ``t_n = c binom(n + d - 2, n) a^n`` have
        the ratio ``r_n = a (n + d - 1) / (n + 1)``, which decreases in n
        towards ``a``.  Where ``r`` at ``n = l_from + 1`` is at most
        ``(1 + a) / 2`` the tail is bounded by its first term over
        ``1 - r``; elsewhere :meth:`_summed_tail` sums the terms up to where
        it is.  Either closure is at most twice the tail it bounds, since
        the tail from there is at least that term over ``1 - a``.  A
        prefactor ``c`` that is not a normal float64, or is the product of
        one that is not, is taken in logs, ``2 log sigma + (d - 1)
        log1p(-a)``: it has lost digits or underflowed to 0, and the terms
        it multiplies can be large.
        """
        total = 0.0
        n = l_from + 1
        for s, (c, a) in zip(self.sigma, self._tail_terms()):
            if min(c, (1.0 - a) ** (self.d - 1)) >= _TINY:
                log_c = math.log(c)
            else:
                log_c = 2.0 * math.log(s) + (self.d - 1) * math.log1p(-a)
            r = a * (n + self.d - 1.0) / (n + 1.0)
            if r > 0.5 * (1.0 + a):
                total += self._summed_tail(s * s, log_c, a, n)
                continue
            if self.d >= 2:
                log_binom = (math.lgamma(n + self.d - 1.0) - math.lgamma(n + 1.0)
                             - math.lgamma(self.d - 1.0))
            else:
                log_binom = -math.inf  # family degenerates on the circle
            log_term = log_c + log_binom + n * math.log(a)
            total += math.exp(log_term) / (1.0 - r)
        return total

    def _summed_tail(self, s2: float, log_c: float, a: float, n0: int) -> float:
        """Bound on ``sum_{n >= n0} t_n`` for one diagonal entry (terms of
        log prefactor ``log_c`` that sum to ``s2 = sigma^2`` over all n)
        whose ratio at n0 exceeds ``q = (1 + a) / 2``.

        The terms from n0 up to the first degree N whose ratio is at most q
        are summed from their logs, and the rest is closed geometrically at
        ``r_N``.  That takes about ``2 a d / (1 - a)`` terms.  Where that is
        more than ``_TAIL_TERMS`` and more than n0, n0 lies below about half
        of N, near or below the mean degree ``a (d - 1) / (1 - a)`` of the
        terms, where the tail is a fair share of ``s2``; there the bound is
        ``s2`` minus the terms below n0.  Either way it is raised by the
        rounding of the terms' logs, 16 eps times the sum of the magnitudes
        of their parts at the largest degree used, relative to the sum or to
        ``s2``.  It is at most ``s2``, which it is where that rounding
        leaves the logs no digits (d beyond about 1e14).
        """
        d = self.d
        # N = ceil((a (d - 1) - q) / (q - a)) exactly, at any size of d
        num, den = a.as_integer_ratio()
        N = max(n0, -((den + num - 2 * num * (int(d) - 1)) // (den - num)))
        summed = N - n0 <= max(_TAIL_TERMS, n0)
        try:
            log_gd = math.lgamma(d - 1.0)
            top = N if summed else n0
            rounding = 16.0 * _EPS * (abs(log_c) + math.lgamma(top + d - 1.0) + log_gd
                                      + math.lgamma(top + 1.0) - top * math.log(a) + 1.0)
        except OverflowError:
            return s2
        if not rounding < 1.0:
            return s2

        def terms(ns):
            return [math.exp(log_c + math.lgamma(n + d - 1.0) - math.lgamma(n + 1.0)
                             - log_gd + n * math.log(a)) for n in ns]

        if summed:
            t = terms(range(n0, N + 1))
            t[-1] /= 1.0 - a * (N + d - 1.0) / (N + 1.0)   # close at r_N
            return min(s2, math.fsum(t) * (1.0 + rounding))
        return min(s2, s2 - math.fsum(terms(range(n0))) + s2 * rounding)

    def tail_to_dict(self) -> dict:
        """The ``tail`` object of docs/schemas/sequence.schema.json."""
        c, a = zip(*self._tail_terms())
        return {"kind": "geometric",
                "params": {"coefficients": list(c), "ratios": list(a), "d": self.d}}


def multiquadratic_validity(p: MultiquadraticParams) -> float:
    """The margin of the two PSD conditions of the family, the smaller of
    their two slacks.

    Valid iff ``a12 <= sqrt(a11 a22)`` and
    ``rho12 < ((1-a11)(1-a22)/(1-a12)^2)^{(d-1)/2}``; otherwise a
    ``ValueError`` names the first condition that fails.
    """
    a11, a22, a12 = p.alpha
    root = math.sqrt(a11 * a22)
    try:
        bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((p.d - 1) / 2.0)
    except OverflowError:   # a base above 1, so a12 > root fails first
        bound = math.inf
    if a12 > root:
        failing = f"alpha_12 = {a12:g} exceeds sqrt(alpha_11 alpha_22) = {root:g}"
    elif p.rho12 >= bound:
        failing = (f"rho12 = {p.rho12:g} is not below the cross-correlation "
                   f"bound {bound:g}")
    else:
        return min(root - a12, bound - p.rho12)
    raise ValueError(f"invalid multiquadratic parameters: {failing}")


def _mq_entry_logs(p: MultiquadraticParams, n) -> np.ndarray:
    """log of the three distinct stored coefficient entries (11, 22, 12) at
    degrees n: the published entries divided by ``C_n^lam(1)``.

    For d >= 2 the division cancels the binomial; on the circle C_n(1) = 1
    (Chebyshev convention) while the binomial itself vanishes for n >= 1, so
    there the entries beyond degree 0 are 0.
    """
    n = np.asarray(n, dtype=float)
    s1, s2 = p.sigma
    a11, a22, a12 = p.alpha
    pref = np.log([s1 * s1, s2 * s2, p.rho12 * s1 * s2])
    alphas = np.array([a11, a22, a12])
    logs = (pref[:, None] + n[None, :] * np.log(alphas)[:, None]
            + (p.d - 1) * np.log1p(-alphas)[:, None])
    if p.d == 1:
        logs = logs + np.where(n == 0, 0.0, -np.inf)[None, :]
    return logs


def multiquadratic_kernel_closed_form(p: MultiquadraticParams, theta: float) -> np.ndarray:
    """The 2 x 2 closed-form kernel matrix with entries
    ``rho_ij sigma_i sigma_j (1-a_ij)^2 / (1 + a_ij^2 - 2 a_ij cos(theta))``.

    The denominator exponent matches the coefficient expansion exactly at
    d = 3 only; for other d the matrix is not the kernel of the series.
    """
    if not 0.0 <= theta <= math.pi + THETA_SLACK:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    s1, s2 = p.sigma
    a11, a22, a12 = p.alpha
    ct = math.cos(theta)

    def entry(rho, si, sj, a):
        return rho * si * sj * (1.0 - a) ** 2 / (1.0 + a * a - 2.0 * a * ct)

    return np.array([
        [entry(1.0, s1, s1, a11), entry(p.rho12, s1, s2, a12)],
        [entry(p.rho12, s1, s2, a12), entry(1.0, s2, s2, a22)],
    ])


def multiquadratic_sequence(p: MultiquadraticParams, l_max: int) -> SchoenbergSequence:
    """Materialize the family as a SchoenbergSequence in the unnormalized
    Gegenbauer basis (published entries divided by ``C_n^lam(1)``)."""
    multiquadratic_validity(p)
    require_fit(8 * 4 * (l_max + 1), f"the degree-{l_max} coefficient stack")
    e11, e22, e12 = np.exp(_mq_entry_logs(p, np.arange(l_max + 1)))
    stack = np.stack([np.stack([e11, e12], axis=1),
                      np.stack([e12, e22], axis=1)], axis=1)  # (L+1, 2, 2)
    return SchoenbergSequence(p.d, stack, p)


def _finite_gammas(*xs) -> bool:
    """Whether ``math.gamma`` of every x is a finite float64."""
    try:
        return all(math.isfinite(math.gamma(x)) for x in xs)
    except OverflowError:
        return False


@dataclass(frozen=True)
class LegendreMaternParams:
    """Parameters of the Legendre-Matern operator family on S^2."""

    sigma: float
    alpha: float
    nu: float
    l_max: int = DEFAULT_L_MAX
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        for name in ("sigma", "alpha", "nu"):
            v = float(getattr(self, name))
            if not v > 0.0:
                raise ValueError(f"{name} must be > 0, got {v}")
            object.__setattr__(self, name, v)
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite float64, got alpha = {self.alpha}")
        if not math.isfinite(self.sigma * self.sigma):
            raise ValueError("sigma^2 must be a finite float64 (sigma below about "
                             f"1.34e154), got sigma = {self.sigma}")
        if not _finite_gammas(self.nu, self.nu + 0.5):
            raise ValueError("nu must keep Gamma(nu) and Gamma(nu + 1/2) of the tail "
                             "bound finite float64s (about 5.6e-309 < nu < 171.12), "
                             f"got nu = {self.nu}")
        if self.l_max < 1 or self.k_max < 1:
            raise ValueError("truncations l_max and k_max must be >= 1")

    def to_dict(self) -> dict:
        return {"model": "legendre_matern", "sigma": self.sigma,
                "alpha": self.alpha, "nu": self.nu,
                "L_max": self.l_max, "K_max": self.k_max}

    def trace_tail_bound(self, l_from: int) -> float:
        """Integral upper bound on ``sum_{l > l_from} trace(b_l)``.

        Uses ``sum_{k>=1} (alpha + k^2 + l^2)^{-nu-1/2} <= c_nu/2 (alpha + l^2)^{-nu}``
        with ``c_nu = sqrt(pi) Gamma(nu) / Gamma(nu + 1/2)`` and then the
        integral comparison in l, giving decay exponent ``2 nu + 1`` per degree.
        """
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

    def tail_to_dict(self) -> dict:
        """The ``tail`` object of docs/schemas/sequence.schema.json."""
        return {"kind": "power_law",
                "params": {"sigma": self.sigma, "alpha": self.alpha, "nu": self.nu}}


def legendre_matern_gamma_grid(p: LegendreMaternParams,
                               l_max: int | None = None) -> np.ndarray:
    """Grid ``gamma_{l,k}`` for ``l <= l_max`` (default ``p.l_max``) and
    ``k <= p.k_max``, shape (L+1, K+1), as a read-only array.

    The grid is the one array of that size that is allocated: each step of
    ``sigma^2 / ((2l+1) (alpha + k^2 + l^2)^(nu+1/2))`` runs in place, with
    the ufuncs of the plain expression, so the ``require_fit`` check of one
    stack is what the build needs and the bits are the expression's.  A
    :class:`SchoenbergSequence` adopts the read-only result without a copy.

    For large ``nu`` (from about 62 at L = K = 200) the denominator overflows
    to ``inf``, and for small ``alpha`` at large ``nu`` its first entry
    underflows to 0.  Both pass silently: the quotient is then 0 or ``inf``,
    which is what float64 holds for such a gamma.
    """
    L = p.l_max if l_max is None else l_max
    K = p.k_max
    require_fit(8 * (L + 1) * (K + 1),
                f"the degree-{L}, frequency-{K} coefficient stack")
    l = np.arange(L + 1, dtype=float)[:, None]
    k = np.arange(K + 1, dtype=float)[None, :]
    g = p.alpha + k * k + l * l
    with np.errstate(over="ignore", divide="ignore"):
        g **= p.nu + 0.5
        g *= 2 * l + 1
        np.divide(p.sigma ** 2, g, out=g)
    g.setflags(write=False)
    return g


def build_sequence(params, l_max: int | None = None) -> SchoenbergSequence:
    """Materialize either family, with ``params`` as the sequence's ``tail``
    (its closed-form ``trace_tail_bound``); the Legendre-Matern family lives
    on S^2, with h(l) = 2l+1 baked into its spectrum."""
    if isinstance(params, MultiquadraticParams):
        return multiquadratic_sequence(params, DEFAULT_L_MAX if l_max is None else l_max)
    if isinstance(params, LegendreMaternParams):
        return SchoenbergSequence(2, legendre_matern_gamma_grid(params, l_max), params)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


# The fields of each model block of docs/schemas/model.schema.json, key ->
# int, float, or (float, n) for an array of n numbers; each is passed as the
# keyword ``key.lower()``.  The parameter classes check the values and
# default the optional L_max and K_max.
_MODEL_BLOCKS = {
    "multiquadratic": (MultiquadraticParams, {
        "d": int, "sigma": (float, 2), "rho12": float, "alpha": (float, 3)}),
    "legendre_matern": (LegendreMaternParams, {
        "sigma": float, "alpha": float, "nu": float, "L_max": int, "K_max": int}),
}


def _number(key: str, value, kind):
    """``value`` as a float, or as an int when ``kind`` is int (an integral
    float such as 1e12 counts, as in JSON Schema); a bool, a string or a
    non-integral (or non-finite) integer is a ``TypeError`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"field {key!r} must be a number, got {value!r}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:   # an int beyond float64
            return math.inf if value > 0 else -math.inf
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeError(f"field {key!r} must be an integer, got {value!r}")
        return int(value)
    return value


def _field(key: str, value, kind):
    """``value`` parsed as ``kind``: a number kind of :func:`_number`, or
    ``(kind, n)`` for an array of n items of that kind (any length when n is
    None), returned as a tuple."""
    if not isinstance(kind, tuple):
        return _number(key, value, kind)
    kind, n = kind
    if not isinstance(value, list) or n is not None and len(value) != n:
        what = "an array" if n is None else f"an array of {n} numbers"
        raise TypeError(f"field {key!r} must be {what}, got {value!r}")
    return tuple(_field(f"{key}[{i}]", v, kind) for i, v in enumerate(value))


def parse_fields(obj: dict, tag: str, fields: dict, optional=()) -> dict:
    """The fields of a block whose kind is named by its ``tag`` field, parsed
    by :func:`_field` into keywords ``key.lower()``.  An unknown field, or
    one of the wrong type or length, is a ``TypeError``; a missing field
    that is not ``optional`` a ``KeyError``."""
    for key in obj:
        if key != tag and key not in fields:
            raise TypeError(f"unknown field {key!r} in a {obj[tag]} block")
    for key in fields:
        if key not in obj and key not in optional:
            raise KeyError(f"missing field '{key}'")
    return {key.lower(): _field(key, obj[key], kind)
            for key, kind in fields.items() if key in obj}


def params_from_dict(obj: dict):
    """Parse a model block (see docs/formats.md) into a parameter object.

    A missing field is a ``KeyError``; an unknown field, or one of the wrong
    type or length, a ``TypeError``; an unknown model, or a value the
    parameter class rejects, a ``ValueError``.
    """
    try:
        model = obj["model"]
    except KeyError:
        raise KeyError("missing field 'model'") from None
    if not isinstance(model, str) or model not in _MODEL_BLOCKS:
        raise ValueError(f"unknown model {model!r}")
    cls, fields = _MODEL_BLOCKS[model]
    return cls(**parse_fields(obj, "model", fields, ("L_max", "K_max")))
