"""Property tests: every CLI flag input maps to a documented exit code and
any JSON it prints obeys its schema, every model block and grid spec the
parsers accept obeys its schema, every model block of the schema is parsed
or an invalid model, extreme model parameters end in a documented exit code
without a numpy warning (also as an ``equiv`` pair), ``validate`` and
``equiv`` share one definition of strict positivity, closed-form verdicts
are decisive and symmetric, ``C_l^lam(1)`` is the exact binomial rounded
once, a window of positive finite series terms always has a decay fit, the
tail bounds of both families cover their tails, the multiquadratic
closed form is the sum of its series at every d, and multiquadratic
equivalence terms are those of a 60-digit decimal reference."""

import contextlib
import decimal
import io
import json
import math
import shutil
import warnings
from decimal import Decimal

import numpy as np
from hypothesis import given, reject, settings, strategies as st
from jsonschema import Draft7Validator, ValidationError
from scipy import stats

from spherefield import cli
from spherefield import equivalence as eq
from spherefield import harmonics as sh
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield import simulate as sim
from _reference import (
    DECIMAL,
    closed_form_tolerance,
    decimal_pair_terms,
    load_schema,
    reject_constant,
    stored_decimal_entries,
    validate_schema,
)

MQ = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
      "rho12": 0.4, "alpha": [0.5, 0.5, 0.45]}
LM = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0}

# family -> (reference-side model, other model)
PAIRS = {"multiquadratic": (MQ, dict(MQ, alpha=[0.5, 0.5, 0.40])),
         "legendre_matern": (LM, dict(LM, alpha=2.0))}

# subcommand -> its arguments besides --config and --l-max (kept small)
SINGLE_MODEL = {
    "validate": [],
    "schoenberg-export": [],
    "kernel": ["--thetas", "0,1.5"],
    "sample": ["--n-samples", "1"],
    "mc-check": ["--thetas", "0,1.0", "--n-samples", "4"],
}


# subcommand -> the schema of the JSON object it prints
JSON_STDOUT = {"validate": "validity_report", "schoenberg-export": "sequence",
               "mc-check": "check_report", "equiv": "equivalence_report"}


def _write(tmp_path_factory, name, obj) -> str:
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(obj))
    return str(path)


def _main(argv) -> int:
    """``cli.main(argv)``, checking that whatever a subcommand of
    ``JSON_STDOUT`` prints is strict JSON (no Infinity or NaN) that obeys its
    schema, and that ``sample`` prints strict JSON listing the files of a
    manifest that obeys its schema.  stdout is redirected rather than read
    from ``capsys``, which hypothesis does not allow in a test it runs many
    times."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if not out.getvalue() or argv[0] not in (*JSON_STDOUT, "sample"):
        return code
    printed = json.loads(out.getvalue(), parse_constant=reject_constant)
    if argv[0] in JSON_STDOUT:
        validate_schema(f"{JSON_STDOUT[argv[0]]}.schema.json", printed)
    else:
        with open(printed["manifest"]) as fh:
            manifest = json.load(fh, parse_constant=reject_constant)
        validate_schema("manifest.schema.json", manifest)
        assert printed["files"] == [f["name"] for f in manifest["files"]]
    return code


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(PAIRS)),
       l_max=st.integers(-5, 1300),
       k_max=st.none() | st.integers(-2, 64))
def test_equiv_flags_give_documented_exit_code(tmp_path_factory, family, l_max, k_max):
    # exit codes of docs/formats.md; an escaping exception fails the test
    paths = [_write(tmp_path_factory, f"{family}_{i}.json", model)
             for i, model in enumerate(PAIRS[family])]
    argv = ["equiv", *paths, "--l-max", str(l_max)]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    assert _main(argv) in {0, 1, 2, 3}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(SINGLE_MODEL)),
       family=st.sampled_from(sorted(PAIRS)),
       l_max=st.integers(-5, 24),
       out=st.sampled_from(["none", "missing directory", "existing file"]))
def test_l_max_flag_gives_documented_exit_code(tmp_path_factory, command, family,
                                               l_max, out):
    # a negative --l-max is a usage error (exit 1) in every subcommand, and so
    # is an --out that cannot be written: a path in a missing directory, or
    # for `sample`, whose --out is a directory, an existing file
    base = tmp_path_factory.getbasetemp()
    argv = [command, "--config", _write(tmp_path_factory, f"{family}.json",
                                        PAIRS[family][0]),
            "--l-max", str(l_max), *SINGLE_MODEL[command]]
    if command == "sample":
        grid = {"kind": "uniform", "d": 2, "n": 3}
        argv += ["--grid", _write(tmp_path_factory, "grid.json", grid)]
    out_path = {"none": base / "samples" if command == "sample" else None,
                "missing directory": base / "missing" / "out",
                "existing file": base / "file"}[out]
    (base / "file").write_text("")
    if out_path is not None:
        argv += ["--out", str(out_path)]
    unwritable = out == ("existing file" if command == "sample" else "missing directory")
    code = _main(argv)
    shutil.rmtree(base / "missing", ignore_errors=True)   # `sample` makes it
    assert code == 1 if l_max < 0 or unwritable else code in {0, 2, 3}


# any value a JSON or TOML config may hold
CONFIG_SCALARS = (st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
                  | st.sampled_from([0.4, 2.0, 2.5, 1e12, 10 ** 400]) | st.text(max_size=2))
CONFIG_VALUES = CONFIG_SCALARS | st.lists(CONFIG_SCALARS, max_size=4)
BLOCK_KEYS = sorted(set(MQ) | set(LM) | {"L_max", "K_max", "Lmax"})


@st.composite
def model_blocks(draw):
    """A valid model block with a few fields dropped or replaced."""
    block = dict(draw(st.sampled_from([MQ, LM, dict(LM, L_max=20, K_max=4)])))
    for key in draw(st.lists(st.sampled_from(BLOCK_KEYS), max_size=3)):
        if draw(st.booleans()):
            block.pop(key, None)
        else:
            block[key] = draw(CONFIG_VALUES)
    return block


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block=model_blocks())
def test_accepted_model_blocks_obey_the_schema(block):
    # a rejected block is a KeyError, TypeError or ValueError; any other
    # exception fails the test
    try:
        md.params_from_dict(block)
    except (KeyError, TypeError, ValueError):
        return
    validate_schema("model.schema.json", block)


def _positive(draw, top=None):
    """A number > 0 up to ``top`` (any, infinity included, by default): a
    float, or an integer as large as 10^400."""
    if draw(st.booleans()):
        return draw(st.integers(1, 10 ** 400 if top is None else int(top)))
    return draw(st.floats(0.0, top, exclude_min=True))


def _integer(draw, top):
    """An integer in [1, top], sometimes written as the integral float that
    draft 7 also counts as an integer."""
    n = draw(st.integers(1, top) | st.sampled_from([1, 2, top]))
    return float(n) if n < 1e308 and draw(st.booleans()) else n


@st.composite
def schema_model_blocks(draw):
    """A block that model.schema.json accepts, the optional L_max and K_max
    of a Legendre-Matern block present or omitted."""
    if draw(st.booleans()):
        unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        block = {"model": "multiquadratic", "d": _integer(draw, 10 ** 400),
                 "sigma": [_positive(draw, 1e300) for _ in range(2)],
                 "rho12": draw(unit), "alpha": draw(st.lists(unit, min_size=3,
                                                             max_size=3))}
    else:
        block = {"model": "legendre_matern", "sigma": _positive(draw, 1e300),
                 "alpha": _positive(draw), "nu": _positive(draw)}
        for key in ("L_max", "K_max"):
            if draw(st.booleans()):
                block[key] = _integer(draw, 10 ** 6)
    validate_schema("model.schema.json", block)
    return block


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block=schema_model_blocks())
def test_schema_model_blocks_are_never_malformed(block):
    # the converse of the property above: a block of the schema is accepted,
    # or refused as an invalid model (ValueError, exit 2), and never as
    # malformed (KeyError or TypeError, exit 1)
    try:
        md.params_from_dict(block)
    except ValueError:
        pass


GRID_SPECS = [
    {"kind": "points", "d": 2, "points": [[0.0, 0.0, 1.0], [1, 0, 0]]},
    {"kind": "uniform", "d": 2, "n": 3, "seed": 7, "stream": 1},
    {"kind": "equiangular", "n_polar": 2, "n_azimuth": 3},
    {"kind": "equispaced", "n": 4},
]
GRID_KEYS = sorted({key for spec in GRID_SPECS for key in spec} | {"N"})
# sizes stay small, or beyond what numpy allocates at all
GRID_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
                | st.sampled_from([1, 2, 2.0, 2.5, 1e300, 2 ** 64, "5", "uniform",
                                   "equispaced"]))
GRID_VALUES = (GRID_SCALARS | st.lists(GRID_SCALARS, max_size=3)
               | st.lists(st.lists(st.floats(-1.0, 1.0) | st.integers(-1, 1),
                                   max_size=4), max_size=3))


@st.composite
def grid_specs(draw):
    """A valid grid spec with a few fields dropped or replaced."""
    spec = dict(draw(st.sampled_from(GRID_SPECS)))
    for key in draw(st.lists(st.sampled_from(GRID_KEYS), max_size=3)):
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(GRID_VALUES)
    return spec


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec=grid_specs())
def test_grid_specs_are_parsed_by_their_schema(spec):
    # an accepted spec obeys grid.schema.json, and a spec that obeys it is
    # accepted or fails only on a value (a ValueError: a point off the
    # sphere, no points, a key word beyond 64 bits); a missing or unknown
    # field or a wrong type is a KeyError or TypeError
    try:
        validate_schema("grid.schema.json", spec)
        obeys = True
    except ValidationError:
        obeys = False
    try:
        sim.SampleGrid.from_spec(spec)
    except (KeyError, TypeError):
        assert not obeys, spec
    except ValueError:
        pass
    else:
        assert obeys, spec


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 10 ** 6) | st.integers(1, 70), l=st.integers(0, 3000))
def test_gegenbauer_at_one_is_the_exact_binomial(d, l):
    # C_l^lam(1) = binom(l + d - 2, l) on S^d, rounded once, inf beyond
    # float64; 1 on the circle
    try:
        exact = 1.0 if d == 1 else float(math.comb(l + d - 2, l))
    except OverflowError:
        exact = math.inf
    lam = sh.gegenbauer_order(d)
    assert sh.gegenbauer_at_one_all(lam, l)[l] == sh.gegenbauer_at_one(lam, l) == exact


@st.composite
def extreme_model_blocks(draw):
    """Multiquadratic blocks on S^d up to d = 10^6 inside the closed-form
    valid region, and Legendre-Matern blocks with nu up to 170 (or drawn
    log-uniformly down to 1e-300), at small truncations."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 10 ** 6) | st.sampled_from([342, 343, 454, 455]))
        a11, a22 = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
        a12 = draw(st.floats(0.05, 1.0)) * math.sqrt(a11 * a22)
        bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((d - 1) / 2.0)
        if not bound > 0.0:   # underflows at large d unless the rates are equal
            a22 = a12 = a11
            bound = 1.0
        rho12 = draw(st.floats(0.05, 0.95)) * min(bound, 1.0)
        return {"model": "multiquadratic", "d": d, "sigma": [1.0, 2.0],
                "rho12": rho12, "alpha": [a11, a22, a12]}, draw(st.integers(0, 40))
    return {"model": "legendre_matern", "sigma": 10.0 ** draw(st.floats(-3.0, 3.0)),
            "alpha": 10.0 ** draw(st.floats(-3.0, 3.0)),
            "nu": draw(st.floats(0.05, 170.0) | st.just(1e-300)
                       | st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e)),
            "L_max": draw(st.integers(1, 30)), "K_max": draw(st.integers(1, 30))}, None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=extreme_model_blocks())
def test_extreme_models_give_documented_exit_code(tmp_path_factory, model):
    # a valid model of the right type is accepted (0) or an invalid model
    # (2, e.g. coefficients underflowed to 0); mc-check, run on the
    # Legendre-Matern blocks, may also fail its check (3), but a model that
    # validates is never invalid there; an escaping exception or a numpy
    # RuntimeWarning fails the test
    block, l_max = model
    config = _write(tmp_path_factory, "extreme.json", block)
    l_max_args = [] if l_max is None else ["--l-max", str(l_max)]
    commands = ["validate", "kernel", "schoenberg-export"]
    if block["model"] == "legendre_matern":
        commands.append("mc-check")
    codes = {}
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes[command] = _main([command, "--config", config, *l_max_args,
                                    *SINGLE_MODEL[command]])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert all(codes[c] in {0, 2} for c in commands if c != "mc-check"), (codes, block)
    if "mc-check" in codes:
        allowed = {0, 3} if codes["validate"] == 0 else {0, 2, 3}
        assert codes["mc-check"] in allowed, (codes, block)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(model=extreme_model_blocks(), data=st.data())
def test_extreme_model_pairs_give_documented_exit_code(tmp_path_factory, model, data):
    # equiv on an extreme block against itself and against a copy with one
    # parameter scaled down ends in 0, 2 or 3 without a numpy RuntimeWarning
    block, _ = model
    keys = [k for k in block if k not in ("model", "d", "L_max", "K_max")]
    key = data.draw(st.sampled_from(keys))
    factor = data.draw(st.floats(0.5, 1.0, exclude_max=True))
    other = dict(block)
    if isinstance(block[key], list):
        i = data.draw(st.integers(0, len(block[key]) - 1))
        other[key] = [v * factor if j == i else v for j, v in enumerate(block[key])]
    else:
        other[key] = block[key] * factor
    l_max = data.draw(st.integers(31, 64))
    config = _write(tmp_path_factory, "extreme.json", block)
    for i, partner in enumerate((block, other)):
        path = _write(tmp_path_factory, f"partner_{i}.json", partner)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _main(["equiv", config, path, "--l-max", str(l_max)])
        assert code in {0, 2, 3}, (block, partner)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _equiv_accepts(seq) -> bool:
    """Whether ``seq`` is admissible as the reference of a functional series."""
    try:
        eq.functional_series(seq, seq)
    except ValueError as exc:
        assert "strictly positive" in str(exc)
        return False
    return True


def _assert_one_definition(seq) -> bool:
    positive = sb.validate_sequence(seq)["strictly_positive"]
    assert positive == _equiv_accepts(seq)
    return positive


@st.composite
def closed_form_pairs(draw):
    """Two multiquadratic models inside the closed-form valid region on one
    S^d (d from 1 to 10), sharing their marginals or not and sometimes equal,
    or two Legendre-Matern models sharing sigma, nu, both or neither."""
    positive = st.floats(0.1, 10.0)
    if draw(st.booleans()):
        d = draw(st.integers(1, 10))

        def marginals():
            return (draw(st.tuples(positive, positive)),
                    draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95)))

        first = marginals()
        pair = []
        for _ in range(2):
            sigma, a11, a22 = first if pair and draw(st.booleans()) else marginals()
            a12 = draw(st.floats(0.05, 1.0) | st.just(1.0)) * math.sqrt(a11 * a22)
            bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((d - 1) / 2.0)
            pair.append(md.MultiquadraticParams(
                d=d, sigma=sigma, rho12=draw(st.floats(0.05, 0.95)) * min(bound, 1.0),
                alpha=(a11, a22, a12)))
            if draw(st.booleans()):
                pair.append(pair[0])
                break
        return eq.classify_multiquadratic, pair[:2]
    sigma, alpha, nu = (draw(positive) for _ in range(3))
    p1 = md.LegendreMaternParams(sigma, alpha, nu)
    p2 = md.LegendreMaternParams(sigma if draw(st.booleans()) else draw(positive),
                                 draw(positive),
                                 nu if draw(st.booleans()) else draw(positive))
    return eq.classify_legendre_matern, [p1, p2]


VERDICT_ITEM = Draft7Validator(
    load_schema("equivalence_report.schema.json")["properties"]["verdicts"]["items"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=closed_form_pairs())
def test_closed_form_verdicts_are_decisive_and_symmetric(case):
    # a closed-form verdict is never inconclusive, does not depend on the
    # order of the pair, and is the verdicts item of the equivalence report
    classify, (p1, p2) = case
    forward, backward = classify(p1, p2), classify(p2, p1)
    for v in (forward, backward):
        VERDICT_ITEM.validate(v)
        assert list(v) == ["verdict", "provenance", "diagnostics"]
        assert v["verdict"] in (eq.EQUIVALENT, eq.ORTHOGONAL)
        assert v["provenance"] == eq.CLOSED_FORM
    assert forward["verdict"] == backward["verdict"]


@st.composite
def multiquadratic_term_pairs(draw):
    """Two valid multiquadratic models on one S^d (d from 2 to 10), the
    second taking each parameter of the first (or its fraction of the rho12
    bound) half the time, so some pairs share their marginals or are equal,
    with a truncation up to 1024."""
    d = draw(st.integers(2, 10))
    # log10 sigma_1, log10 sigma_2, a11, a22, a12 / sqrt(a11 a22), rho12 / bound
    ranges = [(-1.0, 1.0), (-1.0, 1.0), (0.01, 0.99), (0.01, 0.99), (0.01, 1.0),
              (0.01, 0.99)]
    first = [draw(st.floats(lo, hi)) for lo, hi in ranges]
    second = [v if draw(st.booleans()) else draw(st.floats(lo, hi))
              for v, (lo, hi) in zip(first, ranges)]
    models = []
    for s1, s2, a11, a22, cross, rho in (first, second):
        a12 = cross * math.sqrt(a11 * a22)
        bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((d - 1) / 2.0)
        models.append(md.MultiquadraticParams(
            d=d, sigma=(10.0 ** s1, 10.0 ** s2), rho12=rho * min(bound, 1.0),
            alpha=(a11, a22, a12)))
    return models, draw(st.integers(0, 1024))


# c of the bound c eps cond(B2) on a term's relative error, fixed before the
# property first ran
TERM_ERROR_C = 64


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=multiquadratic_term_pairs())
def test_multiquadratic_terms_are_the_decimal_reference(case):
    # every term of a valid pair against the 60-digit term of the same
    # stored entries, so the difference is the computation's own rounding:
    # 0 exactly where the reference is, never 0 where it is positive, and
    # within TERM_ERROR_C eps cond(B2) relative, cond(B2) = (1 + r) / (1 - r)
    # of the equilibrated reference (off-diagonal r).  The pair is cut
    # before the first degree with an entry that is not a normal float, and
    # degrees whose reference distance (term / h(l)) is below the normal
    # range are not compared: float64 cannot hold their squares (ROADMAP
    # item 2).  The 100 examples (10872 terms compared, 165 equal degrees)
    # read at most 11.5 eps cond(B2), 0.18 of the bound, as do 1000; about
    # 0.7 s.
    (p1, p2), l_max = case
    seqs = [md.build_sequence(p, l_max) for p in (p1, p2)]
    low = np.any(np.concatenate([s.coeffs for s in seqs], axis=1).reshape(l_max + 1, -1)
                 < np.finfo(float).tiny, axis=1)
    seqs = [sb.truncate_sequence(s, int(np.argmax(low)) - 1) if low.any() else s
            for s in seqs]
    terms = eq.functional_series(*seqs)
    ref = decimal_pair_terms(p1.d, *map(stored_decimal_entries, seqs))
    eps, tiny, big = (Decimal(float(v)) for v in (
        np.finfo(float).eps, np.finfo(float).tiny, np.finfo(float).max))
    with decimal.localcontext(DECIMAL):
        for l, (t, r, b) in enumerate(zip(terms.tolist(), ref, seqs[1].coeffs)):
            if r == 0:
                assert t == 0.0
            elif r > big:
                assert t == math.inf
            elif r / sh.h_dim(p1.d, l) >= tiny:
                c = abs(b[0, 1]) / math.sqrt(b[0, 0]) / math.sqrt(b[1, 1])
                cond = Decimal((1.0 + c) / (1.0 - c))
                assert t > 0.0
                assert abs(Decimal(t) - r) <= TERM_ERROR_C * eps * cond * r


@st.composite
def scaled_stacks(draw):
    """A coefficient stack and the same stack under per-degree scalings
    ``c_l D_l b_l D_l`` (positive c_l, positive diagonal D_l) whose entries
    span up to about +-150 decades.  Diagonal entries may be zero; matrices
    are ``A A^T``, and in half the stacks one of them is rank-deficient."""
    variant = draw(st.sampled_from([sb.SCALAR, sb.FOURIER_DIAGONAL, sb.MATRIX]))
    n = draw(st.integers(1, 5))
    width = 1 if variant == sb.SCALAR else draw(st.integers(1, 4))
    span = draw(st.sampled_from([0.0, 10.0, 70.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if variant == sb.MATRIX:
        ranks = [width] * n
        if draw(st.booleans()):
            ranks[draw(st.integers(0, n - 1))] = draw(st.integers(0, width - 1))
        stack = np.array([a @ a.T for a in (rng.standard_normal((width, r))
                                            for r in ranks)])
        stack = 0.5 * (stack + stack.swapaxes(1, 2))
    else:
        stack = 10.0 ** rng.uniform(-20.0, 20.0, (n, width))
        stack[rng.random((n, width)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    c = 10.0 ** rng.uniform(-span / 7, span / 7, n)
    d = 10.0 ** rng.uniform(-span, span, (n, width))
    if variant == sb.MATRIX:
        scaled = c[:, None, None] * d[:, :, None] * stack * d[:, None, :]
    else:
        scaled = c[:, None] * d * d * stack
    if variant == sb.SCALAR:
        stack, scaled = stack[:, 0], scaled[:, 0]
    return (sb.SchoenbergSequence(2, stack),
            sb.SchoenbergSequence(2, scaled))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair=scaled_stacks())
def test_strict_positivity_one_definition_on_scaled_stacks(pair):
    seq, scaled = pair
    # validate and equiv agree, and a positive diagonal scaling (which keeps
    # strict positivity) does not move the verdict
    assert _assert_one_definition(scaled) == _assert_one_definition(seq)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), a11=st.floats(0.05, 0.95), a22=st.floats(0.05, 0.95),
       cross=st.floats(0.05, 1.0), rho=st.floats(0.05, 0.95),
       sigma=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       l_max=st.integers(0, 400))
def test_strict_positivity_one_definition_on_multiquadratic(d, a11, a22, cross, rho,
                                                            sigma, l_max):
    # the closed-form valid region: a12 <= sqrt(a11 a22), rho12 below its bound
    a12 = cross * math.sqrt(a11 * a22)
    bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((d - 1) / 2.0)
    p = md.MultiquadraticParams(d=d, sigma=tuple(10.0 ** s for s in sigma),
                                rho12=rho * min(bound, 1.0), alpha=(a11, a22, a12))
    try:
        md.multiquadratic_validity(p)
    except ValueError:
        reject()
    _assert_one_definition(md.build_sequence(p, l_max))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(-3.0, 3.0), alpha=st.floats(-3.0, 3.0),
       nu=st.floats(0.05, 40.0), l_max=st.integers(1, 400), k_max=st.integers(1, 400))
def test_strict_positivity_one_definition_on_legendre_matern(sigma, alpha, nu,
                                                             l_max, k_max):
    # every gamma is positive here (the smallest is above 1e-240), so the
    # model validates however many decades its spectrum spans
    p = md.LegendreMaternParams(10.0 ** sigma, 10.0 ** alpha, nu, l_max, k_max)
    assert _assert_one_definition(md.build_sequence(p))


@st.composite
def positive_window_terms(draw):
    """Float64 series terms ``t_0 .. t_L`` with ``L + 1 >= MIN_TERMS`` whose
    window ``(L // 2, L)`` is positive and finite; the terms below the
    window are any float64, NaN and infinities included."""
    n = draw(st.integers(eq.MIN_TERMS, 160))
    lo = (n - 1) // 2
    below = draw(st.lists(st.floats(width=64), min_size=lo, max_size=lo))
    window = draw(st.lists(st.floats(min_value=0.0, max_value=float(np.finfo(float).max),
                                     exclude_min=True, allow_subnormal=True),
                           min_size=n - lo, max_size=n - lo))
    return np.array(below + window, dtype=float)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(terms=positive_window_terms())
def test_positive_finite_window_has_a_decay_fit(terms):
    # the window holds at least 17 degrees, all usable by the fit, so the
    # classifier never needs its non-vanishing floor for such terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(eq.fit_decay_exponent(terms))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 1000), l_from=st.integers(0, 3000),
       sigma=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       alpha=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
       cross=st.floats(0.01, 0.99))
def test_multiquadratic_tail_bound_is_finite_and_tight(d, l_from, sigma, alpha, cross):
    # the bound reads d, sigma and the diagonal rates only, and a small
    # enough rho12 makes any of them a valid model.
    # Entry i's terms are sigma_i^2 times the negative binomial pmf of d - 1
    # successes at probability 1 - a_ii, so the tail past l_from is
    # sigma_i^2 sf(l_from) (none on the circle, where only degree 0 is left).
    # The bound is at least the tail and at most twice it: either geometric
    # closure overshoots the tail from its degree by at most a factor of 2
    # (the ratios never fall below a_ii).  Tails below 1e-290 are not
    # compared: float64 has too few digits there.  About 1 s for the 200
    # examples.
    a11, a22 = alpha
    p = md.MultiquadraticParams(d=d, sigma=tuple(10.0 ** s for s in sigma), rho12=1e-9,
                                alpha=(a11, a22, cross * math.sqrt(a11 * a22)))
    tail = 0.0 if d == 1 else sum(
        s * s * float(stats.nbinom.sf(l_from, d - 1, 1.0 - a))
        for s, a in zip(p.sigma, (a11, a22)))
    bound = p.trace_tail_bound(l_from)
    assert math.isfinite(bound) and bound >= 0.0
    if tail > 1e-290:
        assert tail * (1.0 - 1e-9) <= bound <= 2.0 * tail * (1.0 + 1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 200), a11=st.floats(0.01, 0.95), a22=st.floats(0.01, 0.95),
       cross=st.floats(0.01, 1.0), rho=st.floats(0.01, 0.99),
       sigma=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       theta=st.floats(0.0, math.pi))
def test_multiquadratic_closed_form_is_the_series(d, a11, a22, cross, rho, sigma, theta):
    # at every d the closed form is the sum of the series: entrywise within
    # the rounding of the sum plus the tail bound, at L the first power of
    # two from 64 whose tail bound is below 1e-17.  Models with no such L up
    # to 8192, or whose series is not finite there (C_l(1) beyond float64),
    # are left out.  The error beyond the tail bound has reached 0.032 of
    # the rounding term here (0.26 (L+1) eps sum_l |b_l| C_l(1)), and 0.33
    # in 3000 seeded random cases.  About 1 s for the 200 examples.
    a12 = cross * math.sqrt(a11 * a22)
    bound = ((1.0 - a11) * (1.0 - a22) / (1.0 - a12) ** 2) ** ((d - 1) / 2.0)
    p = md.MultiquadraticParams(d=d, sigma=tuple(10.0 ** s for s in sigma),
                                rho12=rho * min(bound, 1.0), alpha=(a11, a22, a12))
    try:
        md.multiquadratic_validity(p)
    except ValueError:
        reject()
    l_max = next((64 << k for k in range(8) if p.trace_tail_bound(64 << k) < 1e-17), None)
    if l_max is None:
        reject()
    seq = md.build_sequence(p, l_max)
    tol = closed_form_tolerance(seq) + p.trace_tail_bound(l_max)
    if not np.all(np.isfinite(tol)):
        reject()
    thetas = [0.0, math.pi, theta]
    series = sb.IsotropicKernel(seq).evaluate_stack([math.cos(t) for t in thetas])
    for t, r in zip(thetas, series):
        assert np.all(np.abs(r - md.multiquadratic_kernel_closed_form(p, t)) <= tol)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(-1.0, 1.0), alpha=st.floats(-2.0, 2.0),
       nu=st.floats(math.log10(0.05), math.log10(20.0)),
       l_from=st.integers(0, 299), k_max=st.integers(1, 63))
def test_legendre_matern_tail_bound_covers_the_tail(sigma, alpha, nu, l_from, k_max):
    # the power-law bound past l_from is finite and at least the next 4000
    # trace terms of the sequence, at any K_max (it bounds K_max = inf, so
    # it is loose at small K_max: the 100 examples read bound / tail from
    # 1.2 to 3.2e5).  sigma, alpha and nu are log-uniform; at nu = 1e-300
    # the bound is inf, as docs/formats.md says.  About 0.3 s.
    p = md.LegendreMaternParams(10.0 ** sigma, 10.0 ** alpha, 10.0 ** nu,
                                l_from + 4000, k_max)
    bound = p.trace_tail_bound(l_from)
    tail = float(np.sum(md.build_sequence(p).trace_terms()[l_from + 1:]))
    assert math.isfinite(bound) and bound >= tail

