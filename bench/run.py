#!/usr/bin/env python3
"""spherefield benchmark: CLI wall time, set-up time, memory and failures.

    python3 bench/run.py --workload sample-lm --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/`` (nothing is installed).  Workloads are in
``workloads.py``.  One client runs closed-loop: each CLI invocation
(``python -m spherefield.cli ...``) starts after the previous one exits, and
every CLI process gets one BLAS thread, so client plus program stay within
two cores.  Workload iterations repeat while the next one is expected to end
within ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured on CLI subprocesses:

* ``wall_s``      median wall time of one workload iteration (every CLI
                  invocation in it, interpreter start and imports included);
* ``setup_s``     median wall time of a fresh interpreter that imports
                  ``spherefield.cli`` and builds the workload's sequences and
                  grid through public calls;
* ``items_per_s`` fields synthesized (sample-lm, mc-check-mq; printed as
                  ``fields_per_s``) or CLI operations (algebra-mix) per second
                  of ``wall_s``;
* ``peak_rss_mb`` largest ``ru_maxrss`` of any CLI child, from ``wait4``;
* ``ok_rate``     ``1 - error_rate``, the share of operations that succeeded.
                  It stands in for ``error_rate`` in the result line because
                  an end-to-end metric must never read 0; ``error_rate`` is
                  printed by name above it.

``--trace 1`` runs the same operations in process through
``spherefield.cli.main(argv)``, alternating untraced and traced iterations
for ``--seconds``, and reports the per-layer split (``tracing.py``) and the
tracing overhead (traced minus untraced median wall).  Spans are written as
JSON lines to ``.bench_out/`` at the end.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  A failed operation counts
toward ``failed``; ``correct`` turns false on any failure that is not a known
defect named by the workload.  Outputs go to a temporary directory under
``.bench_tmp/`` that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA_DIR = ROOT / "docs" / "schemas"
WORK_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

import tracing  # noqa: E402  (bench/ is on sys.path when run as a script)
import workloads  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 7
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB", "ok_rate": "fraction"}
PER_LAYER = {
    **{name: unit for name, (unit, _) in tracing.SPAN_METRICS.items()},
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
COUNT_UNITS = ("count", "bytes", "MB_computed")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

SETUP_SCRIPT = """
import dataclasses, json, sys, time
t0 = time.perf_counter()
import spherefield.cli
t1 = time.perf_counter()
from spherefield.models import build_sequence, params_from_dict
from spherefield.simulate import SampleGrid
plan = json.loads(sys.argv[1])
for item in plan["sequences"]:
    with open(item["config"]) as fh:
        params = params_from_dict(json.load(fh))
    if "k_max" in item:
        build_sequence(dataclasses.replace(params, l_max=item["l_max"], k_max=item["k_max"]))
    else:
        build_sequence(params, item.get("l_max"))
if "grid" in plan:
    with open(plan["grid"]) as fh:
        SampleGrid.from_spec(json.load(fh))
if "points" in plan:
    SampleGrid.from_points(2, plan["points"])
print(json.dumps({"import_s": t1 - t0, "build_s": time.perf_counter() - t1}))
"""

ENV_SCRIPT = """
import json, platform
import numpy, spherefield.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"spherefield": spherefield.__version__, "numpy": numpy.__version__,
                  "python": platform.python_version(), "blas": blas}))
"""


class BenchError(Exception):
    pass


def valid_metric_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (only when there are more than ten samples), and the sample count."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "min": s[0], "max": s[-1]}
    if n > 10:
        out["tail_pct"] = 100 * (n - 10) // n
        out["tail"] = s[n - 11]
    return out


def _describe(summary: dict) -> str:
    text = f"median {summary['median']:.4f}  n={summary['n']}"
    if "tail" in summary:
        text += f"  p{summary['tail_pct']} {summary['tail']:.4f}"
    else:
        text += "  (no percentile has ten samples beyond it)"
    return text + f"  min {summary['min']:.4f}  max {summary['max']:.4f}"


# -- child processes ----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, workdir: str, env: dict) -> workloads.OpResult:
    """Run one child to completion; its own rusage comes from ``wait4``."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return workloads.OpResult(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


def probe_environment(workdir: str, env: dict) -> dict:
    """Versions the run depends on; also warms the bytecode and file caches."""
    res = run_child([sys.executable, "-c", ENV_SCRIPT], workdir, env)
    if res.exit_code != 0:
        raise BenchError("cannot import spherefield.cli: " + res.stderr.strip()[-500:])
    info = json.loads(res.stdout)
    info["nproc"] = len(os.sched_getaffinity(0))
    info["blas_threads"] = {k: env.get(k) for k in THREAD_ENV}
    return info


def measure_setup(wl: workloads.Workload, workdir: str, env: dict):
    """Wall times of fresh set-up interpreters and their own import times."""
    plan = json.dumps(wl.setup)
    walls, imports = [], []
    for _ in range(SETUP_REPS):
        res = run_child([sys.executable, "-c", SETUP_SCRIPT, plan], workdir, env)
        if res.exit_code != 0:
            raise BenchError("set-up failed: " + res.stderr.strip()[-500:])
        walls.append(res.wall_s)
        imports.append(json.loads(res.stdout)["import_s"])
    return walls, imports


# -- the runs -----------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first reason per operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.reasons = {}
        self.unexpected = False
        self.op_walls = {}

    def record(self, op: workloads.Op, result: workloads.OpResult) -> None:
        self.attempted += 1
        self.op_walls.setdefault(op.name, []).append(result.wall_s)
        reason = workloads.evaluate(op, result)
        if reason is not None:
            self.failed[op.name] += 1
            self.reasons.setdefault(op.name, reason)
            self.unexpected |= op.known_defect is None

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def run_untraced(wl, workdir, env, seconds, tally) -> dict:
    walls, peak_kb = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        total = 0.0
        for op in wl.ops:
            workloads.reset_outdir(op)
            res = run_child([sys.executable, "-m", "spherefield.cli"] + op.args, workdir, env)
            total += res.wall_s
            peak_kb = max(peak_kb, res.maxrss_kb)
            tally.record(op, res)
        walls.append(total)
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    wall = summarize(walls)
    items = wl.fields or len(wl.ops)
    return {"wall": wall, "walls": walls, "items_per_s": items / wall["median"],
            "peak_rss_mb": peak_kb / 1024.0}


def run_in_process(cli, op) -> workloads.OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.args)
        except Exception:  # an uncaught library error is a failed operation
            traceback.print_exc()
            code = 1
    return workloads.OpResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _in_process_iteration(cli, wl, tally, tracer=None) -> float:
    wall = 0.0
    for op in wl.ops:
        workloads.reset_outdir(op)
        if tracer is not None:
            tracer.op += 1
        res = run_in_process(cli, op)
        wall += res.wall_s
        tally.record(op, res)
    return wall


def run_traced(wl, seconds, tally, trace_path) -> tuple:
    """Alternate untraced and traced in-process iterations; returns the
    per-iteration metrics of the traced ones and the untraced walls."""
    sys.path.insert(0, str(SRC))
    import spherefield.cli as cli

    tracer = tracing.Tracer()
    untraced, traced, all_spans = [], [], []
    deadline = time.perf_counter() + seconds
    _in_process_iteration(cli, wl, tally)  # warm-up: page faults and lazy imports
    for pair in itertools.count():
        # ABBA order, so that a drift in machine speed does not bias the overhead
        for with_trace in (False, True) if pair % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(_in_process_iteration(cli, wl, tally))
                continue
            tracer.reset()
            tracing.instrument(tracer)
            try:
                wall = _in_process_iteration(cli, wl, tally, tracer)
            finally:
                tracer.restore()
            metrics = tracing.span_metrics(tracer.spans, tracer.counts)
            metrics["trace.wall_s"] = wall
            metrics["trace.unaccounted_s"] = wall - sum(
                metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
            traced.append(metrics)
            all_spans += tracer.spans
        if time.perf_counter() >= deadline:
            break
    tracer.spans = all_spans
    tracer.write_jsonl(trace_path)
    return traced, untraced


def per_layer_metrics(traced, untraced, import_s) -> tuple:
    """Median of each metric over traced iterations; counts must repeat."""
    problems = []
    out = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        if PER_LAYER[name] in COUNT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced iterations: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["cli.import_s"] = statistics.median(import_s)
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return {name: out[name] for name in PER_LAYER}, problems


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spherefield" / "cli.py").is_file() or not SCHEMA_DIR.is_dir():
        print(f"error: no spherefield sources under {SRC} or schemas under {SCHEMA_DIR}",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported in the traced run
    env = child_env()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tally = Tally()
    try:
        wl = workloads.make_workload(args.workload, args.seed, workdir,
                                     workloads.Schemas(str(SCHEMA_DIR)))
        env_info = probe_environment(workdir, env)
        setup_walls, import_s = measure_setup(wl, workdir, env)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            traced, untraced = run_traced(wl, args.seconds, tally, trace_path)
            metrics, problems = per_layer_metrics(traced, untraced, import_s)
            units = PER_LAYER
        else:
            res = run_untraced(wl, workdir, env, args.seconds, tally)
            problems = []
            metrics = {"wall_s": res["wall"]["median"],
                       "setup_s": statistics.median(setup_walls),
                       "items_per_s": res["items_per_s"],
                       "peak_rss_mb": res["peak_rss_mb"],
                       "ok_rate": 1.0 - tally.n_failed / tally.attempted}
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    print(f"spherefield benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    error_rate = tally.n_failed / tally.attempted
    if args.trace:
        print(f"trace spans written to {trace_path.relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"  {name:28s} {value:.6g} {units[name]}")
        print(f"  layers' self time + unaccounted = traced wall; tracing overhead "
              f"{metrics['trace.overhead_s']:.4f} s, unaccounted "
              f"{metrics['trace.unaccounted_s']:.6f} s")
    else:
        print(f"  wall_s        {_describe(res['wall'])} s")
        print("    iterations  " + " ".join(f"{w:.4f}" for w in res["walls"]))
        print(f"  setup_s       {_describe(summarize(setup_walls))} s")
        if wl.fields:
            print(f"  fields_per_s  {res['items_per_s']:.4f} fields/s")
        print(f"  items_per_s   {res['items_per_s']:.4f} 1/s")
        print(f"  peak_rss_mb   {res['peak_rss_mb']:.2f} MB")
        for name, walls in tally.op_walls.items():
            print(f"    op {name:18s} {_describe(summarize(walls))} s")
    print(f"  error_rate    {error_rate:.6f} fraction ({tally.n_failed} of "
          f"{tally.attempted} operations failed)")
    ops = {op.name: op for op in wl.ops}
    for name, count in tally.failed.items():
        known = ops[name].known_defect
        print(f"  failed op {name}: {count}x, "
              + (f"known defect: {known}; " if known else "UNEXPECTED; ")
              + tally.reasons[name])
    for problem in problems:
        print(f"  check failed: {problem}")

    result = {"correct": not tally.unexpected and not problems,
              "attempted": tally.attempted, "failed": tally.n_failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
