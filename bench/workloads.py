"""Workload definitions: the generated inputs, the CLI operations and the
checks on their outputs.

Every input a workload needs (model configs, grid spec, angle lists, the
program's own ``--seed``) is derived from the benchmark seed and written into
the run's temporary directory; the program receives only those files and
arguments.  Each operation is one ``spherefield`` CLI invocation.  An
operation fails on a wrong exit code, a Python traceback on stderr, or a
failed output check; checks return a reason string and never raise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

# sample-lm: per-field path (basis rebuilt per sample, one CSV per field)
LM_FIELDS = 4
# mc-check-mq: ensemble path, dominated by Philox normal draws
MC_FIELDS = 2000
MC_THETAS = "0,0.5,1.0,2.0"
KERNEL_THETAS = 8

MQ = {"model": "multiquadratic", "d": 2, "sigma": [1.0, 1.0], "rho12": 0.4,
      "alpha": [0.5, 0.5, 0.45]}
MQ_B = dict(MQ, alpha=[0.5, 0.5, 0.40])
LM = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0}
LM_SAMPLE = dict(LM, L_max=64, K_max=16)
LM_B = dict(LM, alpha=2.0)
GRID = {"kind": "equiangular", "n_polar": 32, "n_azimuth": 64}

UNDERFLOW_DEFECT = ("valid MQ model reported 'not strictly positive' once "
                    "alpha12^n underflows")

# why each was chosen is recorded in BENCHMARK.json
WORKLOADS = ("sample-lm", "mc-check-mq", "algebra-mix")


@dataclass
class OpResult:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int = 0


@dataclass
class Op:
    name: str
    args: list
    check: Callable[[OpResult], str | None]
    expect_exit: int = 0
    fields: int = 0
    known_defect: str | None = None
    outdir: str | None = None   # emptied before each invocation


@dataclass
class Workload:
    name: str
    ops: list
    # what the set-up probe builds: sequences and optional grid (see run.py)
    setup: dict = field(default_factory=dict)

    @property
    def fields(self) -> int:
        return sum(op.fields for op in self.ops)


def evaluate(op: Op, result: OpResult) -> str | None:
    """Failure reason of one invocation, or None when it succeeded."""
    if "Traceback (most recent call last)" in result.stderr:
        return "traceback: " + _last_line(result.stderr)
    if result.exit_code != op.expect_exit:
        return (f"exit {result.exit_code}, expected {op.expect_exit}: "
                + _last_line(result.stderr))
    try:
        return op.check(result)
    except Exception as exc:  # a malformed output must count, not abort the run
        return f"check raised {type(exc).__name__}: {exc}"


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1][:200] if lines else ""


# -- schema validation --------------------------------------------------------


class Schemas:
    """Validators for the JSON schemas shipped under ``docs/schemas``."""

    def __init__(self, schema_dir: str):
        from jsonschema import Draft7Validator
        from referencing import Registry, Resource

        schemas = {}
        for name in sorted(os.listdir(schema_dir)):
            if name.endswith(".schema.json"):
                with open(os.path.join(schema_dir, name)) as fh:
                    schemas[name] = json.load(fh)
        resources = []
        for name, schema in schemas.items():
            res = Resource.from_contents(schema)
            resources += [(name, res), (schema["$id"], res)]
        registry = Registry().with_resources(resources)
        self._validators = {name: Draft7Validator(schema, registry=registry)
                            for name, schema in schemas.items()}

    def errors(self, name: str, obj) -> str | None:
        err = next(iter(self._validators[name].iter_errors(obj)), None)
        return None if err is None else f"{name}: {err.message[:200]}"


# -- checks -------------------------------------------------------------------


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class SampleCheck:
    """Manifest schema, per-file sha256, and identical hashes on every rerun
    with the same seed."""

    def __init__(self, schemas: Schemas, outdir: str, n_fields: int):
        self.schemas = schemas
        self.outdir = outdir
        self.n_fields = n_fields
        self.first_hashes = None

    def __call__(self, result: OpResult) -> str | None:
        with open(os.path.join(self.outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        problem = self.schemas.errors("manifest.schema.json", manifest)
        if problem:
            return problem
        files = manifest["files"]
        if len(files) != self.n_fields:
            return f"manifest lists {len(files)} files, expected {self.n_fields}"
        hashes = []
        for entry in files:
            actual = sha256_file(os.path.join(self.outdir, entry["name"]))
            if actual != entry["sha256"]:
                return f"sha256 mismatch for {entry['name']}"
            hashes.append(actual)
        if json.loads(result.stdout)["files"] != [f["name"] for f in files]:
            return "stdout file list differs from the manifest"
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            return "sample bytes differ from an earlier run with the same seed"
        return None


def _json_check(schemas: Schemas, schema: str, extra: Callable[[dict], str | None]):
    def check(result: OpResult) -> str | None:
        obj = json.loads(result.stdout)
        return schemas.errors(schema, obj) or extra(obj)
    return check


def _passed(obj) -> str | None:
    return None if obj.get("passed") is True else f"passed is {obj.get('passed')!r}"


def _export_check(l_max: int):
    def extra(obj):
        if obj["L_max"] != l_max or len(obj["coeffs"]) != l_max + 1:
            return f"exported {len(obj['coeffs'])} coefficients, expected {l_max + 1}"
        return None
    return extra


def _equiv_verdicts(obj) -> str | None:
    """Closed form says equivalent; the numeric verdict never says orthogonal."""
    verdicts = {v["provenance"]: v["verdict"] for v in obj["verdicts"]}
    if verdicts.get("closed_form") != "equivalent":
        return f"closed-form verdict {verdicts.get('closed_form')!r}, expected 'equivalent'"
    if verdicts.get("numeric") == "orthogonal":
        return "numeric verdict contradicts the closed form (orthogonal)"
    return None


def _kernel_check(n_thetas: int):
    def check(result: OpResult) -> str | None:
        rows = list(csv.reader(io.StringIO(result.stdout)))
        if len(rows) != n_thetas + 1 or rows[0][0] != "theta":
            return f"kernel table has {len(rows)} rows, expected {n_thetas + 1}"
        for row in rows[1:]:
            if len(row) != len(rows[0]):
                return "ragged kernel table"
            if not all(math.isfinite(float(v)) for v in row):
                return "non-finite kernel entry"
        return None
    return check


# -- workloads ----------------------------------------------------------------


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def make_workload(name: str, seed: int, workdir: str, schemas: Schemas) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    rnd = random.Random(f"{name}:{seed}")
    prog_seed = rnd.randrange(2 ** 32)

    def cfg(fname, obj):
        return _write(os.path.join(workdir, fname), obj)

    if name == "sample-lm":
        model = cfg("lm.json", LM_SAMPLE)
        grid = cfg("grid.json", GRID)
        outdir = os.path.join(workdir, "samples")
        op = Op("sample", ["sample", "--config", model, "--grid", grid,
                           "--n-samples", str(LM_FIELDS), "--seed", str(prog_seed),
                           "--format", "csv", "--out", outdir],
                SampleCheck(schemas, outdir, LM_FIELDS), fields=LM_FIELDS, outdir=outdir)
        return Workload(name, [op], {"sequences": [{"config": model}], "grid": grid})

    if name == "mc-check-mq":
        model = cfg("mq.json", MQ)
        op = Op("mc-check", ["mc-check", "--config", model, "--thetas", MC_THETAS,
                             "--n-samples", str(MC_FIELDS), "--seed", str(prog_seed)],
                _json_check(schemas, "check_report.schema.json", _passed),
                fields=MC_FIELDS)
        thetas = [float(t) for t in MC_THETAS.split(",")]
        points = [[0.0, 0.0, 1.0]] + [[math.sin(t), 0.0, math.cos(t)] for t in thetas]
        return Workload(name, [op], {"sequences": [{"config": model}], "points": points})

    if name == "algebra-mix":
        mq, mq_b = cfg("mq.json", MQ), cfg("mq_b.json", MQ_B)
        lm, lm_b = cfg("lm.json", LM), cfg("lm_b.json", LM_B)
        thetas = sorted(round(rnd.uniform(0.0, 3.14159), 6) for _ in range(KERNEL_THETAS))
        validity = _json_check(schemas, "validity_report.schema.json", _passed)
        equiv = _json_check(schemas, "equivalence_report.schema.json", _equiv_verdicts)
        ops = [
            Op("validate-mq-800", ["validate", "--config", mq, "--l-max", "800"], validity),
            Op("export-mq-800", ["schoenberg-export", "--config", mq, "--l-max", "800"],
               _json_check(schemas, "sequence.schema.json", _export_check(800))),
            Op("kernel-mq-800", ["kernel", "--config", mq, "--l-max", "800", "--thetas",
                                 ",".join(repr(t) for t in thetas)],
               _kernel_check(KERNEL_THETAS)),
            Op("equiv-mq-800", ["equiv", mq, mq_b, "--l-max", "800"], equiv),
            Op("equiv-lm-2048", ["equiv", lm, lm_b, "--l-max", "2048", "--k-max", "512"],
               equiv),
            Op("validate-lm-1000", ["validate", "--config", lm, "--l-max", "1000"], validity),
            Op("validate-mq-1100", ["validate", "--config", mq, "--l-max", "1100"], validity,
               known_defect=UNDERFLOW_DEFECT),
        ]
        sequences = [{"config": mq, "l_max": 800}, {"config": mq_b, "l_max": 800},
                     {"config": lm, "l_max": 2048, "k_max": 512},
                     {"config": lm_b, "l_max": 2048, "k_max": 512},
                     {"config": lm, "l_max": 1000}, {"config": mq, "l_max": 1100}]
        return Workload(name, ops, {"sequences": sequences})

    raise ValueError(f"unknown workload {name!r}")


def reset_outdir(op: Op) -> None:
    if op.outdir is not None:
        shutil.rmtree(op.outdir, ignore_errors=True)
