"""The benchmark's traced run (``bench/run.py --trace 1``) wraps functions
at the names listed in ``bench/tracing.py``'s ``TARGETS`` and looks them up
only at run time, so a rename in ``src/`` would break the trace without
failing any other test."""

import importlib.util
import json
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


def test_traced_cli_smoke_run(tracing, tmp_path, capsys):
    # bench/run.py --trace 1 in miniature: every hook runs on real calls, so a
    # hook that reads an argument or attribute the library no longer has
    # fails here, not only in the traced benchmark
    from spherefield import cli

    mq = tmp_path / "mq.json"
    mq.write_text(json.dumps({"model": "multiquadratic", "d": 2, "sigma": [1, 1],
                              "rho12": 0.4, "alpha": [0.5, 0.5, 0.45]}))
    mq_b = tmp_path / "mq_b.json"
    mq_b.write_text(json.dumps({"model": "multiquadratic", "d": 2, "sigma": [1, 1],
                                "rho12": 0.4, "alpha": [0.5, 0.5, 0.4]}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "uniform", "d": 2, "n": 5}))
    out = tmp_path / "run"
    L, n = 4, 3
    runs = {
        "validate": ["validate", "--config", str(mq), "--l-max", str(L)],
        "kernel": ["kernel", "--config", str(mq), "--l-max", str(L), "--thetas", "0,1"],
        "equiv": ["equiv", str(mq), str(mq_b), "--l-max", "40"],
        "mc-check": ["mc-check", "--config", str(mq), "--l-max", str(L),
                     "--thetas", "0,1", "--n-samples", str(n)],
        "sample": ["sample", "--config", str(mq), "--grid", str(grid), "--l-max", str(L),
                   "--n-samples", "1", "--out", str(out)],
    }
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    metrics = {}
    try:
        for name, argv in runs.items():
            tracer.reset()
            assert cli.main(argv) in (0, 3), name
            metrics[name] = tracing.span_metrics(tracer.spans, tracer.counts)
    finally:
        tracer.restore()
    capsys.readouterr()

    for name in ("validate", "kernel", "mc-check", "sample"):
        assert metrics[name]["models.degrees_built"] == L + 1, name
    assert metrics["equiv"]["models.degrees_built"] == 2 * 41
    assert metrics["kernel"]["schoenberg.kernel_s"] > 0
    assert metrics["equiv"]["equivalence.series_s"] > 0
    # (L+1)^2 harmonics on S^2, two values per point
    assert metrics["mc-check"]["simulate.normals_drawn"] == n * (L + 1) ** 2 * 2
    assert metrics["mc-check"]["simulate.ensemble_s"] > 0
    assert metrics["sample"]["simulate.bytes_written"] == (
        out / "sample_0000.csv").stat().st_size > 0
