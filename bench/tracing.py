"""In-process span recorder for the traced benchmark run.

The tracer wraps public functions of the spherefield modules *at the names
their callers look them up by* (``spherefield.cli.synthesize_field``,
``spherefield.simulate.harmonic_basis``, ...), so no file of the package
changes.  Each call records a span ``(id, name, start, end, parent, op)``;
spans stay in memory and are written out as JSON lines when the run ends.
A layer's self time is the time its spans cover minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("harmonics", "models", "schoenberg", "equivalence", "simulate", "cli")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_self_times(spans) -> dict:
    """Sum of span self times per layer (the name prefix before the first dot)."""
    selfs = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + selfs[s.id]
    return totals


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the normals it hands out."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def standard_normal(self, size=None, *args, **kwargs):
        dims = () if size is None else size if isinstance(size, tuple) else (size,)
        self._counts["simulate.normals_drawn"] += math.prod(int(d) for d in dims)
        return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.op = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def traced(self, name, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op))
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore` (module or class)."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, on_result=None) -> None:
        self.patch(owner, attr, self.traced(name, getattr(owner, attr), on_result))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# -- instrumentation of spherefield ------------------------------------------


def _count_degrees(counts, args, kwargs, seq):
    counts["models.degrees_built"] += len(seq.coeffs)


def _count_basis(counts, args, kwargs, basis):
    counts["harmonics.basis_mb"] = max(counts["harmonics.basis_mb"], basis.nbytes / 1e6)


def _count_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["simulate.bytes_written"] += os.path.getsize(path)


# (owner, attribute, span name, result hook).  Each entry is a
# name some caller looks up at call time; the span name's prefix is the layer
# that owns the function.
TARGETS = (
    ("spherefield.cli", "main", "cli.main", None),
    ("spherefield.cli", "params_from_dict", "models.params_from_dict", None),
    ("spherefield.cli", "build_sequence", "models.build_sequence", _count_degrees),
    ("spherefield.cli", "multiquadratic_validity", "models.multiquadratic_validity", None),
    ("spherefield.cli", "multiquadratic_kernel_closed_form",
     "models.multiquadratic_kernel_closed_form", None),
    ("spherefield.cli", "validate_sequence", "schoenberg.validate_sequence", None),
    ("spherefield.cli", "sequence_to_dict", "schoenberg.sequence_to_dict", None),
    ("spherefield.cli", "functional_series", "equivalence.functional_series", None),
    ("spherefield.cli", "classify_numeric", "equivalence.classify_numeric", None),
    ("spherefield.cli", "classify_multiquadratic", "equivalence.classify_multiquadratic", None),
    ("spherefield.cli", "classify_legendre_matern", "equivalence.classify_legendre_matern", None),
    ("spherefield.cli", "report_to_dict", "equivalence.report_to_dict", None),
    ("spherefield.cli", "write_series_csv", "equivalence.write_series_csv", None),
    ("spherefield.cli", "synthesize_field", "simulate.synthesize_field", None),
    ("spherefield.cli", "monte_carlo_kernel_check", "simulate.monte_carlo_kernel_check", None),
    ("spherefield.cli", "write_field_csv", "simulate.write_field_csv", _count_bytes),
    ("spherefield.cli", "write_field_json", "simulate.write_field_json", _count_bytes),
    ("spherefield.cli:SampleGrid", "from_spec", "simulate.grid_from_spec", None),
    ("spherefield.schoenberg", "gegenbauer_all", "harmonics.gegenbauer_all", None),
    ("spherefield.schoenberg:IsotropicKernel", "__init__", "schoenberg.kernel_init", None),
    ("spherefield.schoenberg:IsotropicKernel", "evaluate_stack", "schoenberg.kernel_evaluate", None),
    ("spherefield.schoenberg:IsotropicKernel", "__call__", "schoenberg.kernel_call", None),
    ("spherefield.simulate", "harmonic_basis", "harmonics.harmonic_basis", _count_basis),
    ("spherefield.simulate", "sample_coefficients", "simulate.sample_coefficients", None),
    ("spherefield.simulate", "synthesize_ensemble", "simulate.synthesize_ensemble", None),
    ("spherefield.simulate", "operator_sqrt", "schoenberg.operator_sqrt", None),
    ("spherefield.simulate", "truncate_sequence", "schoenberg.truncate_sequence", None),
    ("spherefield.equivalence", "hs_term", "equivalence.hs_term", None),
)


def _resolve(path: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the module or class."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def instrument(tracer: Tracer) -> None:
    """Install every wrapper in :data:`TARGETS` plus the normal counter."""
    for owner_path, attr, name, hook in TARGETS:
        tracer.wrap(_resolve(owner_path), attr, name, hook)
    simulate = _resolve("spherefield.simulate")
    make_generator = simulate.make_generator
    tracer.patch(simulate, "make_generator",
                 lambda *a, **kw: _CountingGenerator(make_generator(*a, **kw), tracer.counts))


# per-layer metric -> (unit, how it is derived).  ("self", names) sums the self
# time of spans with those names; ("calls", name) counts spans; ("count", key)
# reads a counter recorded at a boundary.
SPAN_METRICS = {
    "harmonics.basis_s": ("s", ("self", ["harmonics.harmonic_basis"])),
    "harmonics.basis_calls": ("count", ("calls", "harmonics.harmonic_basis")),
    "harmonics.basis_mb": ("MB_computed", ("count", "harmonics.basis_mb")),
    "harmonics.gegenbauer_s": ("s", ("self", ["harmonics.gegenbauer_all"])),
    "models.build_s": ("s", ("self", ["models.build_sequence"])),
    "models.degrees_built": ("count", ("count", "models.degrees_built")),
    "schoenberg.validate_s": ("s", ("self", ["schoenberg.validate_sequence"])),
    "schoenberg.kernel_s": ("s", ("self", ["schoenberg.kernel_init", "schoenberg.kernel_evaluate",
                                           "schoenberg.kernel_call"])),
    "schoenberg.serialize_s": ("s", ("self", ["schoenberg.sequence_to_dict"])),
    "schoenberg.sqrt_calls": ("count", ("calls", "schoenberg.operator_sqrt")),
    "schoenberg.sqrt_s": ("s", ("self", ["schoenberg.operator_sqrt"])),
    "equivalence.series_s": ("s", ("self", ["equivalence.functional_series",
                                             "equivalence.hs_term"])),
    "equivalence.hs_term_calls": ("count", ("calls", "equivalence.hs_term")),
    "equivalence.classify_s": ("s", ("self", ["equivalence.classify_numeric",
                                               "equivalence.classify_multiquadratic",
                                               "equivalence.classify_legendre_matern"])),
    "equivalence.report_s": ("s", ("self", ["equivalence.report_to_dict",
                                             "equivalence.write_series_csv"])),
    "simulate.draw_s": ("s", ("self", ["simulate.sample_coefficients"])),
    "simulate.contract_s": ("s", ("self", ["simulate.synthesize_field"])),
    "simulate.ensemble_s": ("s", ("self", ["simulate.synthesize_ensemble"])),
    "simulate.mc_stats_s": ("s", ("self", ["simulate.monte_carlo_kernel_check"])),
    "simulate.write_s": ("s", ("self", ["simulate.write_field_csv", "simulate.write_field_json"])),
    "simulate.bytes_written": ("bytes", ("count", "simulate.bytes_written")),
    "simulate.normals_drawn": ("count", ("count", "simulate.normals_drawn")),
}


def span_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced workload iteration (see SPAN_METRICS),
    plus ``<layer>.self_s`` for every layer."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for metric, (_, (kind, arg)) in SPAN_METRICS.items():
        if kind == "self":
            out[metric] = sum((selfs[s.id] for name in arg for s in by_name[name]), 0.0)
        elif kind == "calls":
            out[metric] = len(by_name[arg])
        else:
            out[metric] = counts.get(arg, 0)
    for layer, total in layer_self_times(spans).items():
        out[f"{layer}.self_s"] = total
    return out
