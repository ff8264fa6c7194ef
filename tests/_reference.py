"""Test oracles and helpers shared by the test modules.

They live in a plain module rather than in ``conftest.py`` because a test
run that also collects ``bench/tests`` loads that directory's
``conftest.py`` under the same module name.
"""

import contextlib
import decimal
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from spherefield import _blas
from spherefield import harmonics as sh

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "docs" / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        res = Resource.from_contents(schema)
        resources.append((path.name, res))
        resources.append((schema["$id"], res))
    return Registry().with_resources(resources)


_REGISTRY = _registry()


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def validate_schema(name: str, obj) -> None:
    """Raise if obj does not satisfy the named shipped schema."""
    validator = Draft7Validator(load_schema(name), registry=_REGISTRY)
    validator.validate(obj)


def reject_constant(token):
    """``parse_constant`` for ``json.loads`` that refuses ``Infinity``,
    ``-Infinity`` and ``NaN``, which RFC 8259 JSON does not have."""
    raise ValueError(f"{token} is not a JSON number")


def patch_draws(monkeypatch, on_draw):
    """Make every generator of the simulate module call ``on_draw(call
    index)`` before each ``standard_normal``."""
    from spherefield import simulate

    make_generator = simulate.make_generator

    class Generator:
        def __init__(self, rng):
            self.rng = rng
            self.calls = 0

        def standard_normal(self, *args, **kwargs):
            self.calls += 1
            on_draw(self.calls)
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(simulate, "make_generator",
                        lambda *a, **kw: Generator(make_generator(*a, **kw)))


@contextlib.contextmanager
def openblas_threads(n: int):
    """Run the block at ``n`` threads of numpy's OpenBLAS and restore the
    count after it; skip the test where the thread API is missing."""
    api = _blas._thread_api()
    if api is None:
        pytest.skip("numpy's OpenBLAS thread API is not available")
    get, set_ = api
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def traced_peak(fn, *args, **kw):
    """``(fn(*args, **kw), peak)``: the call's result and the most memory
    tracemalloc saw allocated during it, in bytes above what was allocated
    when it started (the result included, as it is alive at the end)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def sphere_quadrature(d: int, max_degree: int):
    """Quadrature on S^d exact for harmonic products up to ``max_degree``.

    ``d = 2``: Gauss-Legendre nodes in the polar cosine crossed with a uniform
    trapezoid rule in azimuth; ``d = 1``: uniform trapezoid on the circle.
    Orders are chosen so polynomial integrands of total degree ``max_degree``
    integrate exactly, which makes the orthonormality tests sharp.

    Returns ``(points, weights)`` with ``points`` of shape ``(n, d+1)`` and
    ``sum(weights) = omega_d``.
    """
    if d == 1:
        n = max_degree + 2
        phi = 2.0 * math.pi * np.arange(n) / n
        pts = np.column_stack([np.cos(phi), np.sin(phi)])
        w = np.full(n, 2.0 * math.pi / n)
        return pts, w
    n_polar = max_degree // 2 + 2
    n_az = max_degree + 2
    u, w_u = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * math.pi * np.arange(n_az) / n_az
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    ss = np.sqrt(np.clip(1.0 - uu ** 2, 0.0, None))
    pts = np.column_stack([
        (ss * np.cos(pp)).ravel(),
        (ss * np.sin(pp)).ravel(),
        uu.ravel(),
    ])
    # renormalize rounding dust so check_points accepts the nodes
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    w = np.repeat(w_u * (2.0 * math.pi / n_az), n_az)
    return pts, w


def zonal_sum(d: int, l: int, x, y) -> float:
    """Degree-l zonal sum ``sum_m Y_{l,m}(x) Y_{l,m}(y)`` from the harmonic
    basis; the addition identity says it equals
    ``addition_constant(d, l) * C_l^lam(x . y)``."""
    pts = np.stack([np.asarray(x, float), np.asarray(y, float)])
    block = sh.harmonic_basis(d, l, pts)[:, sh.degree_slices(d, l)[l]]
    return float(np.dot(block[0], block[1]))


def multiquadratic_coeff_logs(p, n) -> np.ndarray:
    """log of the published multiquadratic entries (b_n(1,1), b_n(2,2),
    b_n(1,2)) at degrees n, shape (3, len(n)):

        b_n(i, j) = rho_ij sigma_i sigma_j binom(d+n-2, n) alpha_ij^n (1-alpha_ij)^{d-1}

    in the Gegenbauer basis normalized at 1.  The stored sequence divides
    them by ``C_n(1)``; the log form stays finite long after the entries
    underflow."""
    n = np.asarray(n, dtype=float)
    s1, s2 = p.sigma
    pref = np.log([s1 * s1, s2 * s2, p.rho12 * s1 * s2])
    alphas = np.array(p.alpha)
    logs = (pref[:, None] + n[None, :] * np.log(alphas)[:, None]
            + (p.d - 1) * np.log1p(-alphas)[:, None])
    if p.d >= 2:
        lg = np.vectorize(math.lgamma)
        lbinom = lg(n + p.d - 1.0) - lg(n + 1.0) - math.lgamma(p.d - 1.0)
    else:
        lbinom = np.where(n == 0, 0.0, -np.inf)
    return logs + lbinom[None, :]


def multiquadratic_coeff_entries(p, n) -> np.ndarray:
    """The published entries of :func:`multiquadratic_coeff_logs`."""
    return np.exp(multiquadratic_coeff_logs(p, n))


def closed_form_tolerance(seq) -> np.ndarray:
    """Entrywise bound on ``|R(t) - closed form|`` for a multiquadratic
    sequence truncated at L, minus its tail bound: the rounding of the sum
    ``R(t) = sum_l b_l C_l(t)``, ``8 (L + 1) eps sum_l |b_l| C_l(1)``
    (``|C_l(t)| <= C_l(1)``).  ``inf`` where that sum is not finite."""
    c1 = sh.gegenbauer_at_one_all(seq.order, seq.l_max)
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.sum(np.abs(seq.coeffs) * c1[:, None, None], axis=0)
    return np.where(np.isfinite(mag), 8.0 * (seq.l_max + 1) * np.finfo(float).eps * mag,
                    math.inf)


# 60 digits and an exponent range no stored float64 entry, product or
# quotient of them can leave
DECIMAL = decimal.Context(prec=60, Emin=-10 ** 9, Emax=10 ** 9)


def multiquadratic_decimal_entries(p, l_max) -> list:
    """The stored entries ``(e11, e22, e12)`` of a multiquadratic model at
    degrees ``0 .. l_max`` (d >= 2) as :data:`DECIMAL` numbers,

        e_ij(n) = rho_ij sigma_i sigma_j alpha_ij^n (1 - alpha_ij)^(d-1),

    from the exact values of the float parameters: the published entries
    divided by ``C_n(1)``, correct to 60 digits at any d and degree."""
    if p.d < 2:
        raise ValueError("the stored multiquadratic entries vanish beyond degree 0 "
                         "on the circle")
    D = decimal.Decimal
    s1, s2 = map(D, p.sigma)
    alphas = tuple(map(D, p.alpha))
    with decimal.localcontext(DECIMAL):
        prefs = (s1 * s1, s2 * s2, D(p.rho12) * s1 * s2)
        lows = [pref * (1 - a) ** (p.d - 1) for pref, a in zip(prefs, alphas)]
        return [tuple(low * a ** n for low, a in zip(lows, alphas))
                for n in range(l_max + 1)]


def stored_decimal_entries(seq) -> list:
    """The entries ``(e11, e22, e12)`` of a 2 x 2 coefficient stack, each the
    exact value of its float64 as a ``Decimal``."""
    D = decimal.Decimal
    return [(D(float(b[0, 0])), D(float(b[1, 1])), D(float(b[0, 1])))
            for b in seq.coeffs]


def decimal_pair_terms(d, entries1, entries2) -> list:
    """The equivalence terms ``h(l) tr((B2^{-1} (B1 - B2))^2)`` of two
    symmetric 2 x 2 coefficient sequences on S^d (d >= 2) given by their
    entries ``(e11, e22, e12)`` per degree (sequence 2 the reference), to
    60 digits.  ``tr((B2^{-1} D)^2) = ||B2^{-1/2} D B2^{-1/2}||_F^2`` is
    taken through the adjugate, ``tr((adj(B2) D)^2) / det(B2)^2``, with no
    square root and no eigendecomposition, and
    ``h(l) = binom(l + d, d) - binom(l + d - 2, d)`` is the dimension of the
    degree-l harmonics, independent of the library's ``h_dim``."""
    terms = []
    with decimal.localcontext(DECIMAL):
        for l, ((x1, y1, z1), (a, b, c)) in enumerate(zip(entries1, entries2)):
            x, y, z = x1 - a, y1 - b, z1 - c               # D = B1 - B2
            n11, n12 = b * x - c * z, b * z - c * y        # adj(B2) D
            n21, n22 = a * z - c * x, a * y - c * z
            h = math.comb(l + d, d) - math.comb(l + d - 2, d)
            terms.append(h * (n11 * n11 + 2 * n12 * n21 + n22 * n22)
                         / (a * b - c * c) ** 2)
    return terms


def decimal_diagonal_distances(g1, g2, mult) -> list:
    """``sum_k mult_k (g1_k / g2_k - 1)^2`` for every row of two diagonal
    stacks of shape ``(rows, K+1)`` (g2 the strictly positive reference),
    from the exact values of the stored floats, to 60 digits: the
    distances of the diagonal branch of the equivalence terms."""
    D = decimal.Decimal
    ms = [D(float(m)) for m in mult]
    with decimal.localcontext(DECIMAL):
        return [sum(m * (D(a) / D(b) - 1) ** 2 for m, a, b in zip(ms, r1, r2))
                for r1, r2 in zip(np.asarray(g1).tolist(), np.asarray(g2).tolist())]


def fourier_function_values(coefficients, taus) -> np.ndarray:
    """A fourier-variant field value as a function on [0, 1]: the
    coefficient vector in the orthonormal basis
    ``(1, sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t))_{k>=1}``,

        f(tau) = v_0 + sqrt(2) sum_k (v_{2k-1} cos(2 pi k tau)
                                      + v_{2k} sin(2 pi k tau)).
    """
    v = np.asarray(coefficients, dtype=float)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    k = np.arange(1, (v.shape[-1] - 1) // 2 + 1)
    phase = 2.0 * math.pi * k[:, None] * taus[None, :]
    return v[0] + math.sqrt(2.0) * (v[2 * k - 1] @ np.cos(phase)
                                    + v[2 * k] @ np.sin(phase))
