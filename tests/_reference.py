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
