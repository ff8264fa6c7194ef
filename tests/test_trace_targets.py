"""The benchmark's traced run (``bench/run.py --trace 1``) wraps functions
at the names listed in ``bench/tracing.py``'s ``TARGETS`` and looks them up
only at run time, so a rename in ``src/`` would break the trace without
failing any other test."""

import importlib.util
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

from spherefield import models as md
from spherefield import schoenberg as sb

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



@pytest.mark.parametrize("seq", [
    md.build_sequence(md.MultiquadraticParams(
        d=2, sigma=(1.0, 1.0), rho12=0.4, alpha=(0.5, 0.5, 0.3)), 7),
    md.build_sequence(md.LegendreMaternParams(1.0, 1.0, 1.0, 5, 3)),
    sb.SchoenbergSequence(2, sb.SCALAR, np.ones(4)),
], ids=["matrix", "fourier", "scalar"])
def test_count_degrees_counts_every_degree(tracing, seq):
    # models.degrees_built reads the sequence's coefficients as the traced
    # run sees them
    counts = Counter()
    tracing._count_degrees(counts, (), {}, seq)
    assert counts["models.degrees_built"] == seq.l_max + 1
