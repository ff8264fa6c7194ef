"""Property tests over CLI flags: every input maps to a documented exit code."""

import json

from hypothesis import given, settings, strategies as st

from spherefield import cli

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
       l_max=st.integers(-5, 24))
def test_l_max_flag_gives_documented_exit_code(tmp_path_factory, command, family, l_max):
    # a negative --l-max is a usage error (exit 1) in every subcommand
    argv = [command, "--config", _write(tmp_path_factory, f"{family}.json",
                                        PAIRS[family][0]),
            "--l-max", str(l_max), *SINGLE_MODEL[command]]
    if command == "sample":
        grid = {"kind": "uniform", "d": 2, "n": 3}
        argv += ["--grid", _write(tmp_path_factory, "grid.json", grid),
                 "--out", str(tmp_path_factory.getbasetemp() / "samples")]
    code = cli.main(argv)
    assert code == 1 if l_max < 0 else code in {0, 2, 3, 4}
