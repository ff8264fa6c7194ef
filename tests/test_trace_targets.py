"""The benchmark's traced run (``bench/run.py --trace 1``) wraps functions
at the names listed in ``bench/tracing.py``'s ``TARGETS`` and looks them up
only at run time, so a rename in ``src/`` would break the trace without
failing any other test."""

import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracing.TARGETS
               if attr not in vars(tracing._resolve(owner))]
    assert missing == []


def test_counted_generator_resolves(tracing):
    assert "make_generator" in vars(tracing._resolve("spherefield.simulate"))
