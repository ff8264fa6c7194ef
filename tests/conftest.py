import json

import pytest


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


@pytest.fixture
def tmp_json(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write
