import json
import pathlib

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

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


@pytest.fixture
def basis_calls(monkeypatch):
    """Degrees of the harmonic bases the simulate module builds, in order."""
    from spherefield import simulate

    calls = []
    real = simulate.harmonic_basis

    def counted(d, l_max, points):
        calls.append(l_max)
        return real(d, l_max, points)

    monkeypatch.setattr(simulate, "harmonic_basis", counted)
    return calls


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


@pytest.fixture
def tmp_json(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write
