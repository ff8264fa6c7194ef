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
from typing import NamedTuple

import numpy as np

from ._memory import require_fit
from .schoenberg import (
    FOURIER_DIAGONAL,
    MATRIX,
    GeometricTail,
    PowerLawTail,
    SchoenbergSequence,
)

DEFAULT_L_MAX = 200
DEFAULT_K_MAX = 200

# An angle may exceed pi by this much: a decimal pi written to ten places
# rounds above it.
THETA_SLACK = 1e-9

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class MultiquadraticParams:
    """Parameters of the bivariate multiquadratic family on S^d.

    ``sigma = (sigma_1, sigma_2)`` are the marginal scales, ``rho12`` the
    cross-correlation in (0, 1), and ``alpha = (a_11, a_22, a_12)`` the
    geodesic decay rates, each in (0, 1).
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
        if len(sigma) != 2 or any(s <= 0 for s in sigma):
            raise ValueError(f"sigma must be two positive scales, got {self.sigma}")
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


class MultiquadraticValidity(NamedTuple):
    valid: bool
    margin: float
    failing_condition: str | None


def multiquadratic_validity(p: MultiquadraticParams) -> MultiquadraticValidity:
    """Check the two PSD conditions of the family.

    Valid iff ``a12 <= sqrt(a11 a22)`` and
    ``rho12 < ((1-a11)(1-a22)/(1-a12)^2)^{(d-1)/2}``.  The margin is the
    smaller of the two slacks.
    """
    a11, a22, a12 = p.alpha
    root = math.sqrt(a11 * a22)
    try:
        bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((p.d - 1) / 2.0)
    except OverflowError:   # a base above 1, so a12 > root fails first
        bound = math.inf
    margin = min(root - a12, bound - p.rho12)
    failing = None
    if a12 > root:
        failing = (f"alpha_12 = {a12:g} exceeds sqrt(alpha_11 alpha_22) = {root:g}")
    elif p.rho12 >= bound:
        failing = (f"rho12 = {p.rho12:g} is not below the cross-correlation "
                   f"bound {bound:g}")
    return MultiquadraticValidity(failing is None, margin, failing)


def _mq_entry_logs(p: MultiquadraticParams, n, with_binom: bool) -> np.ndarray:
    """log of the three distinct coefficient entries (11, 22, 12) at degrees n."""
    n = np.asarray(n, dtype=float)
    s1, s2 = p.sigma
    a11, a22, a12 = p.alpha
    pref = np.log([s1 * s1, s2 * s2, p.rho12 * s1 * s2])
    alphas = np.array([a11, a22, a12])
    logs = (pref[:, None] + n[None, :] * np.log(alphas)[:, None]
            + (p.d - 1) * np.log1p(-alphas)[:, None])
    if with_binom:
        if p.d >= 2:
            lg = np.vectorize(math.lgamma)
            lbinom = lg(n + p.d - 1.0) - lg(n + 1.0) - math.lgamma(p.d - 1.0)
        else:
            lbinom = np.where(n == 0, 0.0, -np.inf)
        logs = logs + lbinom[None, :]
    return logs


def multiquadratic_coeff_entries(p: MultiquadraticParams, degrees) -> np.ndarray:
    """Entries (b_n(1,1), b_n(2,2), b_n(1,2)) of the published formula,
    evaluated in log space, for an array of degrees.  Shape (3, len(degrees))."""
    logs = _mq_entry_logs(p, degrees, with_binom=True)
    return np.exp(logs)


class ClosedFormValue(NamedTuple):
    matrix: np.ndarray
    series_consistent: bool


def multiquadratic_kernel_closed_form(p: MultiquadraticParams, theta: float) -> ClosedFormValue:
    """Closed-form kernel matrix with entries
    ``rho_ij sigma_i sigma_j (1-a_ij)^2 / (1 + a_ij^2 - 2 a_ij cos(theta))``.

    The denominator exponent matches the coefficient expansion exactly at
    d = 3; for other d the value is returned with ``series_consistent=False``.
    """
    if not 0.0 <= theta <= math.pi + THETA_SLACK:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    s1, s2 = p.sigma
    a11, a22, a12 = p.alpha
    ct = math.cos(theta)

    def entry(rho, si, sj, a):
        return rho * si * sj * (1.0 - a) ** 2 / (1.0 + a * a - 2.0 * a * ct)

    m = np.array([
        [entry(1.0, s1, s1, a11), entry(p.rho12, s1, s2, a12)],
        [entry(p.rho12, s1, s2, a12), entry(1.0, s2, s2, a22)],
    ])
    return ClosedFormValue(m, p.d == 3)


def multiquadratic_sequence(p: MultiquadraticParams, l_max: int = DEFAULT_L_MAX) -> SchoenbergSequence:
    """Materialize the family as a SchoenbergSequence in the unnormalized
    Gegenbauer basis (published entries divided by ``C_n^lam(1)``)."""
    check = multiquadratic_validity(p)
    if not check.valid:
        raise ValueError(f"invalid multiquadratic parameters: {check.failing_condition}")
    require_fit(8 * 4 * (l_max + 1), f"the degree-{l_max} coefficient stack")
    degrees = np.arange(l_max + 1)
    # dividing the published entries by C_n^lam(1) cancels the binomial for
    # d >= 2; on the circle C_n(1) = 1 (Chebyshev convention) while the
    # binomial itself vanishes for n >= 1, so keep it
    e11, e22, e12 = np.exp(_mq_entry_logs(p, degrees, with_binom=(p.d == 1)))
    stack = np.stack([np.stack([e11, e12], axis=1),
                      np.stack([e12, e22], axis=1)], axis=1)  # (L+1, 2, 2)
    s1, s2 = p.sigma
    a11, a22, _ = p.alpha
    tail = GeometricTail(
        coefficients=(s1 * s1 * (1.0 - a11) ** (p.d - 1),
                      s2 * s2 * (1.0 - a22) ** (p.d - 1)),
        ratios=(a11, a22), d=p.d)
    return SchoenbergSequence(p.d, MATRIX, stack, tail)


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


def legendre_matern_gamma_grid(p: LegendreMaternParams,
                               l_max: int | None = None,
                               k_max: int | None = None) -> np.ndarray:
    """Grid ``gamma_{l,k}`` for ``l <= l_max``, ``k <= k_max``, shape (L+1, K+1).

    For large ``nu`` (from about 62 at L = K = 200) the denominator overflows
    to ``inf``, and for small ``alpha`` at large ``nu`` its first entry
    underflows to 0.  Both pass silently: the quotient is then 0 or ``inf``,
    which is what float64 holds for such a gamma.
    """
    L = p.l_max if l_max is None else l_max
    K = p.k_max if k_max is None else k_max
    require_fit(8 * (L + 1) * (K + 1),
                f"the degree-{L}, frequency-{K} coefficient stack")
    l = np.arange(L + 1, dtype=float)[:, None]
    k = np.arange(K + 1, dtype=float)[None, :]
    with np.errstate(over="ignore", divide="ignore"):
        return p.sigma ** 2 / ((2 * l + 1) * (p.alpha + k * k + l * l) ** (p.nu + 0.5))


def legendre_matern_sequence(p: LegendreMaternParams,
                             l_max: int | None = None) -> SchoenbergSequence:
    """Materialize the family on S^2 (h(l) = 2l+1 is baked into the spectrum)."""
    return SchoenbergSequence(2, FOURIER_DIAGONAL,
                              legendre_matern_gamma_grid(p, l_max=l_max),
                              PowerLawTail(p.sigma, p.alpha, p.nu))


def build_sequence(params, l_max: int | None = None) -> SchoenbergSequence:
    """Materialize either family with its closed-form tail descriptor."""
    if isinstance(params, MultiquadraticParams):
        return multiquadratic_sequence(params, DEFAULT_L_MAX if l_max is None else l_max)
    if isinstance(params, LegendreMaternParams):
        return legendre_matern_sequence(params, l_max=l_max)
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
