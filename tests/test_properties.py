"""Property tests: every CLI flag input maps to a documented exit code, every
model block and grid spec the parsers accept obeys its schema, extreme model
parameters end in a documented exit code without a numpy warning,
``validate`` and ``equiv`` share one definition of strict positivity, and
``C_l^lam(1)`` is the exact binomial rounded once."""

import json
import math
import shutil
import warnings

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from jsonschema import ValidationError

from spherefield import cli
from spherefield import equivalence as eq
from spherefield import harmonics as sh
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield import simulate as sim
from _reference import validate_schema

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


def _write(tmp_path_factory, name, obj) -> str:
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(obj))
    return str(path)


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
    assert cli.main(argv) in {0, 1, 2, 3, 4}


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
    code = cli.main(argv)
    shutil.rmtree(base / "missing", ignore_errors=True)   # `sample` makes it
    assert code == 1 if l_max < 0 or unwritable else code in {0, 2, 3, 4}


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
    valid region, and Legendre-Matern blocks with nu up to 170, at small
    truncations."""
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
            "alpha": 10.0 ** draw(st.floats(-3.0, 3.0)), "nu": draw(st.floats(0.05, 170.0)),
            "L_max": draw(st.integers(1, 30)), "K_max": draw(st.integers(1, 30))}, None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=extreme_model_blocks())
def test_extreme_models_give_documented_exit_code(tmp_path_factory, model):
    # a valid model of the right type is accepted (0) or an invalid model
    # (2, e.g. coefficients underflowed to 0); an escaping exception or a
    # numpy RuntimeWarning fails the test
    block, l_max = model
    config = _write(tmp_path_factory, "extreme.json", block)
    l_max_args = [] if l_max is None else ["--l-max", str(l_max)]
    for command in ("validate", "kernel", "schoenberg-export"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--config", config, *l_max_args,
                             *SINGLE_MODEL[command]])
        assert code in {0, 2}, (command, block)
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
    positive = sb.validate_sequence(seq).strictly_positive
    assert positive == _equiv_accepts(seq)
    return positive


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
    return (sb.SchoenbergSequence(2, variant, stack),
            sb.SchoenbergSequence(2, variant, scaled))


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
    assume(md.multiquadratic_validity(p).valid)
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
