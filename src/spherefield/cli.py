"""Command-line front end.

Subcommands: ``validate``, ``kernel``, ``sample``, ``equiv``, ``mc-check``,
``schoenberg-export``.  Machine-readable JSON goes to stdout (or ``--out``);
human-readable summaries go to stderr.  Model configs are JSON or TOML v1.0
(``tomllib``) by extension; formats and schemas are documented under docs/.

Exit codes: 0 success / equivalent, 1 usage or malformed config (or an
output that cannot be written, or stdout closed early), 2 invalid model (a
value the library refuses with ``ValueError``, mapped in :func:`main` alone)
or unsupported operation (also closed-form vs numeric verdict disagreement,
which indicates an undersized truncation or a bug, a run that cannot
allocate its arrays, and a ``sample`` worker process that dies), 3 negative
verdict or failed check.

``sample`` synthesizes its fields in this process and writes each group of
them from one process per available CPU (see :func:`_worker_count`); the
files do not depend on how many there are.

The default output directory for ``sample`` is taken from the
``SPHEREFIELD_OUTDIR`` environment variable when ``--out`` is omitted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from ._memory import require_fit
from .equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    MIN_TERMS,
    classify_legendre_matern,
    classify_multiquadratic,
    classify_numeric,
    functional_series,
    legendre_matern_series,
    report_to_dict,
    write_series_csv,
)
from .harmonics import check_points, require_synthesis_dim
from .models import (
    THETA_SLACK,
    MultiquadraticParams,
    build_sequence,
    multiquadratic_kernel_closed_form,
    multiquadratic_validity,
    params_from_dict,
    parse_fields,
)
from .schoenberg import (
    TRACE_NOT_FINITE,
    IsotropicKernel,
    check_compatible,
    entry_labels,
    has_finite_variance,
    sequence_to_dict,
    tail_bound,
    validate_sequence,
)
from .simulate import (
    Z_THRESHOLD,
    EnsembleTooLarge,
    SampleGrid,
    check_key,
    field_groups,
    monte_carlo_kernel_check,
    synthesize_field,  # not called here; bench/tracing.py wraps it by this name
    synthesize_fields,
    write_field_csv,
    write_field_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_FAIL = 3

OUTDIR_ENV = "SPHEREFIELD_OUTDIR"

# Peak bytes that ``sample`` holds per sample for its stream id, file entry
# and manifest text: an upper bound on the ~1.4 kB that tracemalloc measures
_SAMPLE_BOOKKEEPING_BYTES = 2048


class UsageError(Exception):
    pass


class OutOfMemory(Exception):
    """An allocation that cannot fit, sized by the input that the message
    names."""


class WorkerError(Exception):
    """A ``sample`` worker process that could not start or died without
    reporting (e.g. killed by a signal)."""


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextmanager
def _writing(path):
    """Turn an ``OSError`` raised while writing ``path`` (or a file in it)
    into a usage error naming the file."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or path}: "
                         f"{exc.strerror or exc}") from exc


def _write_text(path: str, text: str) -> None:
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _emit_json(obj, out_path=None) -> None:
    # reports write non-finite floats as null; one that slips through fails
    # here rather than printing Infinity or NaN, which are not JSON
    text = json.dumps(obj, indent=1, allow_nan=False)
    if out_path:
        _write_text(out_path, text + "\n")
    print(text)


def _load_config(path: str) -> dict:
    """Read a JSON object, or a TOML v1.0 table when ``path`` ends in
    ``.toml``; any file that cannot be read as one is a usage error."""
    try:
        if path.endswith(".toml"):
            import tomllib  # deferred: runs on JSON configs never pay for it
            with open(path, "rb") as fh:
                return tomllib.load(fh)
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except OSError as exc:  # e.g. a directory or an unreadable file
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # tomllib.TOMLDecodeError
        raise UsageError(f"malformed TOML in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a JSON object at the top level, "
                         f"got {type(obj).__name__}")
    return obj


def _load_params(path: str):
    obj = _load_config(path)
    try:
        return params_from_dict(obj)
    except (KeyError, TypeError) as exc:   # not a block of model.schema.json
        raise UsageError(f"{path}: {exc.args[0]}") from exc
    except ValueError as exc:   # a value the model refuses: exit 2 in main
        raise ValueError(f"{path}: {exc}") from exc


def _build_sequence(params, l_max):
    if l_max is not None and l_max < 0:
        raise UsageError(f"--l-max must be >= 0, got {l_max}")
    return build_sequence(params, l_max=l_max)


def _build_finite_sequence(params, l_max):
    """:func:`_build_sequence` for the subcommands that evaluate or sample the
    field: a sequence that ``validate`` flags as :data:`TRACE_NOT_FINITE`
    (its kernel and samples would be ``inf`` or ``nan``) is an invalid model."""
    seq = _build_sequence(params, l_max)
    if not has_finite_variance(seq):
        raise ValueError(TRACE_NOT_FINITE)
    return seq


def _parse_thetas(arg: str) -> list:
    if arg is None or not arg.strip():
        raise UsageError("empty theta list")
    try:
        thetas = [float(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse theta list: {exc}") from exc
    if not thetas:
        raise UsageError("empty theta list")
    if not all(map(math.isfinite, thetas)):
        raise UsageError("thetas must be finite numbers")
    if any(t < 0.0 or t > math.pi + THETA_SLACK for t in thetas):
        raise UsageError("thetas must lie in [0, pi]")
    return thetas


def _check_key(name: str, value: int) -> None:
    try:
        check_key(name, value)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _model_hash(params) -> str:
    import hashlib  # deferred: only ``sample`` hashes (see _file_hash)
    canonical = json.dumps(params.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _file_hash(path: str) -> str:
    # deferred: importing hashlib maps OpenSSL's libcrypto, about 3.5 MB of
    # peak RSS that the subcommands which hash nothing need not pay
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _axis_pairs(d: int, thetas) -> np.ndarray:
    """Point pairs at given geodesic angles: a fixed pole against its rotation."""
    pairs = []
    for t in thetas:
        if d == 1:
            x = np.array([1.0, 0.0])
            y = np.array([math.cos(t), math.sin(t)])
        else:
            x = np.array([0.0, 0.0, 1.0])
            y = np.array([math.sin(t), 0.0, math.cos(t)])
        pairs.append((x, y))
    return np.array(pairs)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    params = _load_params(args.config)
    seq = _build_sequence(params, args.l_max)
    report = validate_sequence(seq)
    if isinstance(params, MultiquadraticParams):
        report["margin"] = multiquadratic_validity(params)
    _emit_json(report, args.out)
    if not report["passed"]:
        _info("sequence validation failed: " + "; ".join(report["flags"]))
        return EXIT_INVALID
    _info(f"valid {seq.variant} sequence on S^{seq.d}, L_max={seq.l_max}")
    return EXIT_OK


def cmd_kernel(args) -> int:
    params = _load_params(args.config)
    thetas = _parse_thetas(args.thetas)
    seq = _build_finite_sequence(params, args.l_max)
    labels = entry_labels(seq)
    values = IsotropicKernel(seq).evaluate_stack([math.cos(t) for t in thetas])
    bound = repr(tail_bound(seq)[0])

    is_mq = isinstance(params, MultiquadraticParams)
    header = ["theta"] + labels + ["tail_bound"]
    if is_mq:
        header += [f"cf[{i}][{j}]" for i in range(2) for j in range(2)]
    rows = []
    for idx, theta in enumerate(thetas):
        entries = np.atleast_1d(values[idx]).ravel()
        row = [repr(theta)] + [repr(float(v)) for v in entries]
        row.append(bound)
        if is_mq:
            cf = multiquadratic_kernel_closed_form(params, theta)
            row += [repr(float(v)) for v in cf.ravel()]
        rows.append(row)

    text = "".join(",".join(r) + "\r\n" for r in [header] + rows)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _worker_count(n_fields: int) -> int:
    """Processes that write a group of ``n_fields`` synthesized fields: one
    per CPU this process may run on (``taskset`` narrows the set), at most
    one per field; one where the platform does not say which CPUs those are
    (no ``os.sched_getaffinity``), so that nothing is forked there."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_fields)


def _run_shares(run_share, shares: list) -> list:
    """``[run_share(share) for share in shares]``, with the first share run
    in this process and each other one in a forked child.

    A child inherits everything by fork (no function is pickled) and sends
    back its pickled result, or the exception it raised, which is raised
    here.  Every child is reaped before this returns or raises; when this
    process's own share fails, the children are killed first.  A child that
    dies without reporting (e.g. killed by the out-of-memory killer) raises
    :class:`WorkerError`.
    """
    import pickle
    import signal
    children = []                                  # (pid, read end, share), unreaped
    try:
        for share in shares[1:]:
            children.append((*_fork_share(run_share, share), share))
        results = [run_share(shares[0])]
        outcomes = []
        while children:
            pid, read_fd, share = children[0]
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()   # drained before waiting: a full pipe blocks the child
            _, status = os.waitpid(pid, 0)
            children.pop(0)        # reaped: never killed or closed again below
            os.close(read_fd)
            outcomes.append((status, data, share))
    finally:
        for pid, read_fd, _ in children:           # this process's share failed
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
    for status, data, share in outcomes:
        if status != 0 or not data:
            raise _worker_death(status, share)
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _fork_share(run_share, share) -> tuple:
    """Fork a child that runs ``run_share(share)``, pickles the outcome into
    a pipe and leaves with ``os._exit``; returns ``(pid, read end)``."""
    import pickle
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()   # what is buffered now must not be written twice
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise WorkerError(f"cannot start a sample worker: {exc.strerror}") from exc
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:   # the child: it never returns into the caller
        os.close(read_fd)
        try:
            outcome = (True, run_share(share))
        except BaseException as exc:   # re-raised by the parent
            outcome = (False, exc)
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(outcome, fh)
        code = 0
    finally:
        os._exit(code)


def _worker_death(status: int, share: list) -> WorkerError:
    """The error for a child that left with wait status ``status`` and no
    pickled outcome."""
    import signal
    what = f"the sample worker for streams {share[0].stream}..{share[-1].stream}"
    if os.WIFSIGNALED(status):
        sig = signal.Signals(os.WTERMSIG(status)).name
        return WorkerError(f"{what} was killed by {sig}")
    return WorkerError(f"{what} exited with status "
                       f"{os.waitstatus_to_exitcode(status)} and no result")


def cmd_sample(args) -> int:
    params = _load_params(args.config)
    if args.n_samples < 1:
        raise UsageError(f"--n-samples must be >= 1, got {args.n_samples}")
    try:
        require_fit(_SAMPLE_BOOKKEEPING_BYTES * args.n_samples,
                    f"the manifest of {args.n_samples} samples")
    except MemoryError as exc:
        raise OutOfMemory(f"{exc}; try a lower --n-samples") from None
    _check_key("--seed", args.seed)
    _check_key("--stream", args.stream)
    _check_key("the last stream (--stream + --n-samples - 1)",
               args.stream + args.n_samples - 1)
    seq = _build_finite_sequence(params, args.l_max)
    require_synthesis_dim(seq.d)
    grid_spec = _load_config(args.grid)
    try:
        grid = SampleGrid.from_spec(grid_spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad grid spec {args.grid}: {exc.args[0]}") from exc
    except MemoryError as exc:
        raise OutOfMemory(f"grid spec {args.grid}: {exc}") from exc
    if grid.d != seq.d:
        raise UsageError(f"grid dimension {grid.d} does not match model d={seq.d}")

    outdir = args.out or os.environ.get(OUTDIR_ENV, ".")
    with _writing(outdir):
        os.makedirs(outdir, exist_ok=True)
    ext = args.format
    writer = write_field_csv if ext == "csv" else write_field_json

    streams = range(args.stream, args.stream + args.n_samples)

    def write_share(samples: list) -> list:
        """Write and hash ``samples``; files are named by their index in
        ``streams``."""
        entries = []
        for sample in samples:
            name = f"sample_{sample.stream - args.stream:04d}.{ext}"
            path = os.path.join(outdir, name)
            writer(sample, path)
            entries.append({"name": name, "stream": sample.stream,
                            "sha256": _file_hash(path)})
        return entries

    # Each group is synthesized here and its files are written by
    # _worker_count processes: the forked ones read the values they inherit
    # and call no BLAS, so they add neither synthesis memory nor BLAS threads.
    files = []
    for group in field_groups(seq, grid, streams):
        samples = synthesize_fields(seq, grid, group, seed=args.seed)
        n_workers = _worker_count(len(samples))
        shares = [samples[i * len(samples) // n_workers:
                          (i + 1) * len(samples) // n_workers]
                  for i in range(n_workers)]
        with _writing(outdir):   # also an OSError that a worker re-raises
            files += [entry for entries in _run_shares(write_share, shares)
                      for entry in entries]

    manifest = {
        "seed": args.seed,
        "streams": list(streams),
        "L_max": seq.l_max,
        "model": params.to_dict(),
        "model_hash": _model_hash(params),
        "grid": grid_spec,
        "format": ext,
        "files": files,
    }
    manifest_path = os.path.join(outdir, "manifest.json")
    _write_text(manifest_path, json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    _info(f"wrote {args.n_samples} samples and manifest to {outdir}")
    print(json.dumps({"manifest": manifest_path, "files": [f["name"] for f in files]},
                     indent=1))
    return EXIT_OK


def cmd_equiv(args) -> int:
    """Compare two models: the closed-form verdict of their family, and the
    numeric verdict from the series terms ``t_0 .. t_L`` (``L = --l-max``),
    which the report and the ``--out`` CSV list with their partial sums.

    The exit code is the closed-form verdict's; a numeric verdict that is
    not inconclusive and disagrees with it makes it 2."""
    p1 = _load_params(args.config1)
    p2 = _load_params(args.config2)
    n_terms = args.l_max + 1  # one series term per degree 0 .. l_max
    if n_terms < MIN_TERMS:
        raise UsageError(
            f"--l-max {args.l_max} gives {n_terms} series terms; the numeric "
            f"classifier needs at least {MIN_TERMS} (--l-max >= {MIN_TERMS - 1})")
    if args.k_max is not None and args.k_max < 1:
        raise UsageError(f"--k-max must be >= 1, got {args.k_max}")

    if type(p1) is not type(p2):
        raise UsageError("model families differ; no common coefficient space")
    if isinstance(p1, MultiquadraticParams):
        if args.k_max is not None:
            raise UsageError("--k-max is for Legendre-Matern configs only")
        closed = classify_multiquadratic(p1, p2)
    else:   # Legendre-Matern, the other family that params_from_dict builds
        closed = classify_legendre_matern(p1, p2)
        k_max = args.k_max if args.k_max is not None else max(p1.k_max, p2.k_max)
        p1, p2 = (replace(p, l_max=args.l_max, k_max=k_max) for p in (p1, p2))
    # the terms, the report and its JSON text peak at about 400 bytes a
    # degree (tracemalloc, LM equiv at --l-max 10^5, with and without --out)
    require_fit(512 * n_terms, f"the {n_terms}-term equivalence report")
    if isinstance(p1, MultiquadraticParams):
        terms = functional_series(*(_build_sequence(p, args.l_max) for p in (p1, p2)))
    else:   # two spectra of K+1 entries a degree: streamed, never stacked
        terms = legendre_matern_series(p1, p2)
    numeric = classify_numeric(terms)

    verdicts = [closed, numeric]
    out_json = f"{args.out}.json" if args.out else None
    obj = report_to_dict(terms, verdicts)
    _emit_json(obj, out_json)
    if args.out:
        csv_path = f"{args.out}.csv"
        with _writing(csv_path):
            write_series_csv(csv_path, terms)

    for v in verdicts:
        _info(f"{v['provenance']}: {v['verdict']} ({v['diagnostics']})")

    if numeric["verdict"] not in (INCONCLUSIVE, closed["verdict"]):
        _info("ERROR: closed-form and numeric verdicts disagree; the "
              "truncation is undersized or there is a bug")
        return EXIT_INVALID
    return EXIT_OK if closed["verdict"] == EQUIVALENT else EXIT_FAIL


def cmd_mc_check(args) -> int:
    params = _load_params(args.config)
    if args.n_samples < 2:
        raise UsageError(f"--n-samples must be >= 2, got {args.n_samples}")
    _check_key("--seed", args.seed)
    _check_key("--stream", args.stream)   # every field draws from this one stream
    seq = _build_finite_sequence(params, args.l_max)
    require_synthesis_dim(seq.d)
    if args.pairs:
        spec = _load_config(args.pairs)
        try:
            fields = parse_fields(spec, None, {"pairs": (((float, seq.d + 1), 2), None)})
            if not fields["pairs"]:
                raise ValueError("field 'pairs' must hold at least one pair of points")
            pairs = np.array(fields["pairs"])
            check_points(seq.d, pairs.reshape(-1, seq.d + 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad pairs file {args.pairs}: {exc.args[0]}") from exc
    else:
        if args.thetas is None:
            raise UsageError("one of --thetas or --pairs is required")
        thetas = _parse_thetas(args.thetas)
        pairs = _axis_pairs(seq.d, thetas)
    analytic = None
    if args.analytic_config:
        # built at the sampled truncation, so a shorter one is extended
        analytic = _build_finite_sequence(_load_params(args.analytic_config), seq.l_max)
        try:
            check_compatible(seq, analytic)
        except ValueError as exc:
            raise UsageError(f"--analytic-config {args.analytic_config}: {exc}") from exc
    try:
        report = monte_carlo_kernel_check(
            seq, pairs, n_samples=args.n_samples, seed=args.seed,
            stream=args.stream, analytic_seq=analytic)
    except EnsembleTooLarge as exc:
        raise OutOfMemory(f"{exc}; try a lower --n-samples") from exc
    _emit_json(report, args.out)
    z_max = math.inf if report["z_max"] is None else report["z_max"]
    _info(f"max |z| = {z_max:.3f} over {len(report['pairs'])} pairs "
          f"(threshold {Z_THRESHOLD})")
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_export(args) -> int:
    params = _load_params(args.config)
    seq = _build_sequence(params, args.l_max)
    _emit_json(sequence_to_dict(seq), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _info(f"error: {message}")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherefield",
                     description="Isotropic Hilbert-valued Gaussian fields on "
                                 "spheres: validation, kernels, sampling, and "
                                 "Gaussian-measure equivalence diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help):
        p.add_argument("--l-max", type=int,
                       help="degree truncation (default: model default)")
        p.add_argument("--out", help=out_help)

    also_out = "also write the JSON printed on stdout to this path"

    p = sub.add_parser("validate", help="check model validity conditions")
    p.add_argument("--config", required=True)
    add_common(p, also_out)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kernel", help="tabulate the covariance kernel over angles")
    p.add_argument("--config", required=True)
    p.add_argument("--thetas", required=True,
                   help="comma-separated geodesic angles in [0, pi]")
    add_common(p, "write the table to this path instead of stdout")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("sample", help="synthesize field realizations")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="grid spec file (JSON/TOML)")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0, help="first stream id")
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help=f"output directory (default: ${OUTDIR_ENV} or .)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("equiv", help="equivalence-vs-orthogonality diagnosis")
    p.add_argument("config1")
    p.add_argument("config2")
    p.add_argument("--l-max", type=int, default=512)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--out", help="report path prefix (.json and .csv)")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("mc-check", help="Monte Carlo covariance reproduction check")
    p.add_argument("--config", required=True)
    p.add_argument("--thetas", default=None,
                   help="comma-separated pair angles in [0, pi]")
    p.add_argument("--pairs", default=None, help="pairs file (JSON with 'pairs')")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--analytic-config", default=None,
                   help="compare samples against this model instead "
                        "(sensitivity runs)")
    p.add_argument("--out", help=also_out)
    p.set_defaults(func=cmd_mc_check)

    p = sub.add_parser("schoenberg-export", help="export the coefficient sequence")
    p.add_argument("--config", required=True)
    add_common(p, also_out)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early (e.g. `| head`); point it at devnull so the
        # flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except UsageError as exc:
        _info(f"usage error: {exc}")
        return EXIT_USAGE
    except ValueError as exc:   # a value the library refuses
        _info(f"invalid model: {exc}")
        return EXIT_INVALID
    except WorkerError as exc:
        _info(f"error: {exc}")
        return EXIT_INVALID
    except OutOfMemory as exc:
        _info(f"out of memory: {exc}")
        return EXIT_INVALID
    except MemoryError as exc:  # e.g. the draws of one field at a huge --l-max
        _info(f"out of memory: {str(exc) or 'an allocation failed'}; try a lower "
              "--l-max (or a lower --k-max / K_max for Legendre-Matern models)")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
