"""Every name a ``spherefield`` module imports is used there, and none is a
private (underscore) name of another ``spherefield`` module.

The one exception to the first rule is a name that ``bench/tracing.py``'s
``TARGETS`` wraps in that module (such as ``cli.synthesize_field``): the
traced benchmark run looks it up there.  The package ``__init__`` is not
checked, as its imports are the package's exports.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

import spherefield

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in pathlib.Path(spherefield.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.fixture(scope="module")
def traced_names() -> set:
    """``(module, name)`` of each name that ``TARGETS`` wraps in a module."""
    spec = importlib.util.spec_from_file_location("bench_tracing_imports",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing      # dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return {(owner, attr) for owner, attr, _, _ in tracing.TARGETS if ":" not in owner}


def unused_imports(source: str) -> list:
    """Names bound by an import statement in ``source`` and never read."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path, traced_names):
    module = f"spherefield.{path.stem}"
    assert [name for name in unused_imports(path.read_text())
            if (module, name) not in traced_names] == []


def private_imports(source: str) -> list:
    """Underscore names that ``source`` imports from a ``spherefield`` module."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "spherefield")
            for alias in node.names if alias.name.startswith("_")]


def test_finds_a_private_import():
    source = ("from ._memory import require_fit\nfrom .schoenberg import _reject, SCALAR\n"
              "from spherefield.models import _helper\nfrom os import _exit\n")
    assert private_imports(source) == ["_reject", "_helper"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text()) == []
