"""Tests of the benchmark's own logic: self-time arithmetic, metric names,
and the output checks.  Run with ``python3 -m pytest bench/tests``."""

import json
import os
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span

ROOT = Path(__file__).resolve().parents[2]


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, op=1)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span(0, "cli.main", 0.0, 10.0),
            _span(1, "simulate.synthesize_field", 1.0, 4.0, parent=0),
            _span(2, "harmonics.harmonic_basis", 2.0, 3.0, parent=1),
            _span(3, "simulate.write_field_csv", 5.0, 9.0, parent=0),
        ]
        selfs = tracing.self_times(spans)
        assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
        layers = tracing.layer_self_times(spans)
        assert layers["cli"] == 3.0
        assert layers["simulate"] == 6.0
        assert layers["harmonics"] == 1.0
        assert sum(layers.values()) == 10.0

    def test_overlapping_children_counted_once(self):
        spans = [
            _span(0, "cli.main", 0.0, 10.0),
            _span(1, "models.build_sequence", 1.0, 4.0, parent=0),
            _span(2, "models.build_sequence", 3.0, 6.0, parent=0),
            _span(3, "models.build_sequence", 8.0, 12.0, parent=0),  # clipped at 10
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)

    def test_tracer_records_parents_and_counts(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        wrapped_leaf = tracer.traced("harmonics.leaf", leaf)

        def outer():
            return wrapped_leaf() + wrapped_leaf()

        def hook(counts, args, kwargs, result):
            counts["calls"] += result

        assert tracer.traced("simulate.outer", outer, hook)() == 2
        outer_span = next(s for s in tracer.spans if s.name == "simulate.outer")
        leaves = [s for s in tracer.spans if s.name == "harmonics.leaf"]
        assert outer_span.parent is None
        assert [s.parent for s in leaves] == [outer_span.id] * 2
        assert tracing.self_times(tracer.spans)[outer_span.id] == 5.0 - 2.0
        assert tracer.counts["calls"] == 2

    def test_instrument_restores_every_name(self):
        import spherefield.cli
        import spherefield.simulate

        before = {(owner, attr): vars(tracing._resolve(owner))[attr]
                  for owner, attr, _, _ in tracing.TARGETS}
        make_generator = spherefield.simulate.make_generator
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        assert spherefield.cli.build_sequence is not before[("spherefield.cli", "build_sequence")]
        tracer.restore()
        for (owner, attr), original in before.items():
            assert vars(tracing._resolve(owner))[attr] is original
        assert spherefield.simulate.make_generator is make_generator


class TestMetricNames:
    @pytest.mark.parametrize("name", ["wall_s", "harmonics.basis_s", "a-1", "9x"])
    def test_valid(self, name):
        assert run.valid_metric_name(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "p99%", "x/y", "é", "a" * 65])
    def test_invalid(self, name):
        assert not run.valid_metric_name(name)

    def test_every_reported_metric_is_well_formed(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        assert len(names) == len(set(names))
        assert all(run.valid_metric_name(n) for n in names)
        assert all(run.valid_unit(u) for u in list(run.END_TO_END.values())
                   + list(run.PER_LAYER.values()))

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


class TestOutputChecks:
    @pytest.fixture
    def schemas(self):
        return workloads.Schemas(str(ROOT / "docs" / "schemas"))

    def _sample(self, tmp_path, outdir):
        import spherefield.cli

        model = tmp_path / "lm.json"
        model.write_text(json.dumps(dict(workloads.LM, L_max=4, K_max=2)))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"kind": "equiangular", "n_polar": 4, "n_azimuth": 8}))
        op = workloads.Op("sample", ["sample", "--config", str(model), "--grid", str(grid),
                                     "--n-samples", "2", "--seed", "7", "--out", str(outdir)],
                          check=None, fields=2, outdir=str(outdir))
        return op, run.run_in_process(spherefield.cli, op)

    def test_corrupted_sample_file_is_flagged(self, tmp_path, schemas):
        outdir = tmp_path / "out"
        op, result = self._sample(tmp_path, outdir)
        op.check = workloads.SampleCheck(schemas, str(outdir), 2)
        assert workloads.evaluate(op, result) is None

        path = outdir / "sample_0001.csv"
        data = bytearray(path.read_bytes())
        data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        assert "sha256 mismatch for sample_0001.csv" in workloads.evaluate(op, result)

    def test_changed_bytes_between_reruns_are_flagged(self, tmp_path, schemas):
        outdir = tmp_path / "out"
        op, result = self._sample(tmp_path, outdir)
        check = workloads.SampleCheck(schemas, str(outdir), 2)
        assert check(result) is None
        check.first_hashes = ["0" * 64, "0" * 64]
        assert "differ" in check(result)

    def test_exit_code_traceback_and_raising_check(self):
        def boom(result):
            raise KeyError("passed")

        op = workloads.Op("x", [], check=boom)
        ok = workloads.OpResult(0, "{}", "", 0.1)
        assert workloads.evaluate(op, ok).startswith("check raised KeyError")
        assert workloads.evaluate(op, workloads.OpResult(2, "", "invalid model: x\n", 0.1)) \
            == "exit 2, expected 0: invalid model: x"
        tb = "Traceback (most recent call last):\n  ...\nValueError: bad\n"
        assert workloads.evaluate(op, workloads.OpResult(1, "", tb, 0.1)) \
            == "traceback: ValueError: bad"

    def test_equiv_verdict_rule(self):
        v = lambda c, n: {"verdicts": [{"provenance": "closed_form", "verdict": c},  # noqa: E731
                                       {"provenance": "numeric", "verdict": n}]}
        assert workloads._equiv_verdicts(v("equivalent", "inconclusive")) is None
        assert "contradicts" in workloads._equiv_verdicts(v("equivalent", "orthogonal"))
        assert "closed-form" in workloads._equiv_verdicts(v("orthogonal", "orthogonal"))


def test_summary_percentile_needs_ten_samples_beyond():
    assert "tail" not in run.summarize(range(10))
    s = run.summarize(range(20))
    assert (s["tail_pct"], s["tail"], s["n"]) == (50, 9, 20)
    assert sum(1 for v in range(20) if v > s["tail"]) == 10
