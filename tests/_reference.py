"""Test oracles and helpers shared by the test modules.

They live in a plain module rather than in ``conftest.py`` because a test
run that also collects ``bench/tests`` loads that directory's
``conftest.py`` under the same module name.
"""

import json
import math
import pathlib

import numpy as np
from jsonschema import Draft7Validator
from referencing import Registry, Resource

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
