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


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(PAIRS)),
       l_max=st.integers(-5, 1300),
       k_max=st.none() | st.integers(-2, 64))
def test_equiv_flags_give_documented_exit_code(tmp_path_factory, family, l_max, k_max):
    # exit codes of docs/formats.md; an escaping exception fails the test
    paths = []
    for i, model in enumerate(PAIRS[family]):
        path = tmp_path_factory.getbasetemp() / f"{family}_{i}.json"
        path.write_text(json.dumps(model))
        paths.append(str(path))
    argv = ["equiv", *paths, "--l-max", str(l_max)]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    assert cli.main(argv) in {0, 1, 2, 3, 4}
