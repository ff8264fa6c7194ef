import argparse
import csv
import errno
import json
import math
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from spherefield import _memory, cli
from spherefield import models as md
from spherefield import schoenberg as sb
from spherefield import simulate as sim
from _reference import ROOT, patch_draws, reject_constant, validate_schema

MQ = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
      "rho12": 0.4, "alpha": [0.5, 0.5, 0.45]}
MQ_D3 = {"model": "multiquadratic", "d": 3, "sigma": [1, 1.2],
         "rho12": 0.4, "alpha": [0.5, 0.6, 0.5]}
MQ_BAD = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
          "rho12": 0.4, "alpha": [0.6, 0.4, 0.5]}
LM = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0}
LM_ALPHA = {"model": "legendre_matern", "sigma": 1.0, "alpha": 2.0, "nu": 1.0}
LM_NU = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.2}
# unequal marginal rates: the diagonal entries decay at different geometric
# rates, so min eigenvalue / trace falls below 1e-12 from degree 50 on
MQ_WIDE = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
           "rho12": 0.4, "alpha": [0.5, 0.9, 0.6]}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    @pytest.mark.parametrize("model, l_max", [
        (MQ, 40), (dict(LM, L_max=20, K_max=4), None)], ids=["mq", "lm"])
    def test_library_report_is_stdout(self, capsys, tmp_json, model, l_max):
        # validate prints the object that validate_sequence returns, with a
        # margin for multiquadratic models only
        params = md.params_from_dict(model)
        report = sb.validate_sequence(md.build_sequence(params, l_max))
        if isinstance(params, md.MultiquadraticParams):
            report["margin"] = md.multiquadratic_validity(params)
        argv = ["validate", "--config", tmp_json("m.json", model)]
        code, out, _ = run(capsys, argv + ([] if l_max is None else
                                           ["--l-max", str(l_max)]))
        assert code == 0 and json.loads(out) == report

    def test_valid_model_exit_zero(self, capsys, tmp_json):
        code, out, _ = run(capsys, ["validate", "--config", tmp_json("m.json", MQ),
                                    "--l-max", "50"])
        assert code == 0
        report = json.loads(out)
        validate_schema("validity_report.schema.json", report)
        assert report["passed"]

    @pytest.mark.parametrize("model, l_max", [
        (dict(LM, nu=3.0), []), (dict(LM, nu=5.0), []),
        (MQ_WIDE, ["--l-max", "60"]), (MQ_WIDE, ["--l-max", "200"])])
    def test_wide_spectrum_strictly_positive(self, capsys, tmp_json, model, l_max):
        # strict positivity does not depend on how many decades the spectrum
        # spans: these models pass although min eig / trace is below 1e-12
        code, out, err = run(capsys, ["validate", "--config",
                                      tmp_json("m.json", model), *l_max])
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)
        assert report["passed"] and report["strictly_positive"]
        assert min(report["min_eig_ratios"]) < 1e-12

    def test_violated_inequality_named(self, capsys, tmp_json):
        code, out, err = run(capsys, ["validate", "--config",
                                      tmp_json("m.json", MQ_BAD)])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == ("invalid model: invalid multiquadratic parameters: "
                       "alpha_12 = 0.5 exceeds sqrt(alpha_11 alpha_22) = 0.489898\n")

    @pytest.mark.parametrize("command", [["validate"], ["schoenberg-export"],
                                         ["kernel", "--thetas", "0,1"]])
    @pytest.mark.parametrize("sigma", [1e300, 1.35e154, math.inf])
    def test_overflowing_lm_sigma_invalid_model(self, capsys, tmp_json, command,
                                                sigma):
        blob = dict(LM, sigma=sigma, L_max=5, K_max=4)
        code, out, err = run(capsys, command[:1] + [
            "--config", tmp_json("m.json", blob)] + command[1:])
        assert code == 2 and out == "" and "Traceback" not in err
        assert "sigma^2 must be a finite float64" in err

    @pytest.mark.parametrize("command", ["validate", "schoenberg-export", "kernel",
                                         "mc-check", "equiv"])
    @pytest.mark.parametrize("alpha", ["1e400", "Infinity"])
    def test_infinite_lm_alpha_invalid_model(self, capsys, tmp_path, tmp_json,
                                             command, alpha):
        # an infinite alpha made every gamma 0: kernel and mc-check exited 0,
        # schoenberg-export failed on an infinite tail parameter, and equiv
        # against alpha = 1 reported disagreeing verdicts
        config = tmp_path / "m.json"
        config.write_text('{"model": "legendre_matern", "sigma": 1, "alpha": '
                          f'{alpha}, "nu": 1, "L_max": 5, "K_max": 4}}')
        config = str(config)
        argv = {"validate": ["validate", "--config", config],
                "schoenberg-export": ["schoenberg-export", "--config", config],
                "kernel": ["kernel", "--config", config, "--thetas", "0,1"],
                "mc-check": ["mc-check", "--config", config, "--thetas", "0,1",
                             "--n-samples", "10"],
                "equiv": ["equiv", config, tmp_json("b.json", LM)]}[command]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == (f"invalid model: {config}: alpha must be a finite "
                       "float64, got alpha = inf\n")

    @pytest.mark.parametrize("command", ["validate", "schoenberg-export", "kernel",
                                         "equiv"])
    @pytest.mark.parametrize("sigma, message", [
        (math.nan, "sigma must be two positive scales"),
        (math.inf, "sigma^2 must be a finite float64 (each sigma below about 1.34e154)"),
        (1e200, "sigma^2 must be a finite float64 (each sigma below about 1.34e154)"),
        (1.35e154, "sigma^2 must be a finite float64 (each sigma below about 1.34e154)"),
    ], ids=["nan", "inf", "1e200", "1.35e154"])
    def test_overflowing_mq_sigma_invalid_model(self, capsys, tmp_json, command,
                                                sigma, message):
        # the model is refused before any coefficient is built, and the
        # message names sigma rather than an infinite coefficient
        config = tmp_json("m.json", dict(MQ, sigma=[sigma, 1]))
        argv = {"validate": ["validate", "--config", config],
                "schoenberg-export": ["schoenberg-export", "--config", config],
                "kernel": ["kernel", "--config", config, "--thetas", "0,1"],
                "equiv": ["equiv", config, tmp_json("b.json", MQ)]}[command]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"invalid model: {config}: {message}")

    @pytest.mark.parametrize("command", [["validate"], ["schoenberg-export"],
                                         ["kernel", "--thetas", "0,1"]])
    @pytest.mark.parametrize("nu", [172.0, 1e300, math.inf, 1e-310])
    def test_overflowing_lm_tail_constant_invalid_model(self, capsys, tmp_json,
                                                        command, nu):
        blob = dict(LM, nu=nu, L_max=5, K_max=4)
        code, out, err = run(capsys, command[:1] + [
            "--config", tmp_json("m.json", blob)] + command[1:])
        assert code == 2 and out == "" and "Traceback" not in err
        assert "nu must keep Gamma(nu) and Gamma(nu + 1/2)" in err

    @pytest.mark.parametrize("command", [
        ["kernel", "--thetas", "0,1"],
        ["mc-check", "--thetas", "0,1", "--n-samples", "10"],
        ["sample", "--n-samples", "1"],
    ])
    def test_non_finite_variance_invalid_model(self, capsys, tmp_json, tmp_path,
                                               command):
        # sigma^2 is finite, the weighted trace overflows: validate flags it
        cfg = tmp_json("m.json", dict(LM, sigma=1.3e154, L_max=20, K_max=4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["validate", "--config", cfg])
        # every gamma is positive: the finiteness flag is the only one, and
        # the overflowing traces raise no RuntimeWarning on the way
        assert code == 2
        assert err == "sequence validation failed: weighted trace not finite\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if command[0] == "sample":
            command = command + ["--grid", tmp_json("g.json", {
                "kind": "uniform", "d": 2, "n": 4, "seed": 7}),
                "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, command[:1] + ["--config", cfg] + command[1:])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == "invalid model: weighted trace not finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("d, validate_code", [(343, 0), (100000, 2)])
    def test_large_multiquadratic_d_no_traceback(self, capsys, tmp_json, d,
                                                 validate_code):
        # omega_d overflowed in its direct form from d = 343 on; at d = 100000
        # every coefficient underflows to 0, which validate flags
        cfg = tmp_json("m.json", dict(MQ, d=d, alpha=[0.5, 0.5, 0.5]))
        code, out, err = run(capsys, ["kernel", "--config", cfg, "--l-max", "10",
                                      "--thetas", "0,1"])
        assert code == 0 and len(out.splitlines()) == 3 and "Traceback" not in err
        code, out, err = run(capsys, ["validate", "--config", cfg, "--l-max", "10"])
        assert code == validate_code and "Traceback" not in err
        report = json.loads(out)
        validate_schema("validity_report.schema.json", report)
        assert all(map(math.isfinite, report["weighted_partial_sums"]))
        if d == 343:
            assert report["weighted_partial_sums"][-1] > 0

    @pytest.mark.parametrize("command", [
        ["validate", "--config", "{m}"], ["kernel", "--config", "{m}", "--thetas", "0,1"],
        ["schoenberg-export", "--config", "{m}"], ["equiv", "{m}", "{m}"]])
    def test_dimension_beyond_float64_invalid_model(self, capsys, tmp_path, command):
        # a 309-digit integer is schema-valid JSON but not a float64
        m = tmp_path / "m.json"
        m.write_text('{"model": "multiquadratic", "d": 2' + "0" * 308 + ', '
                     '"sigma": [1, 1], "rho12": 0.4, "alpha": [0.5, 0.5, 0.5]}')
        code, out, err = run(capsys, [arg.format(m=m) for arg in command])
        assert code == 2 and out == "" and "Traceback" not in err
        assert "sphere dimension d must lie within float64" in err

    @pytest.mark.parametrize("command, expected", [
        (["validate", "--config", "{m}"], 2),
        (["kernel", "--config", "{m}", "--thetas", "0,1"], 0),
        (["equiv", "{m}", "{m}", "--l-max", "200"], 2)])
    def test_large_nu_grid_prints_no_warning(self, capsys, tmp_json, command, expected):
        # from nu ~ 62 at L = K = 200 the smallest gammas underflow to 0, which
        # is reported as not strictly positive, without numpy's warnings
        m = tmp_json("m.json", dict(LM, nu=100.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, [arg.format(m=m) for arg in command])
        assert code == expected and "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if expected:
            assert "strictly positive" in err

    def test_missing_field_usage_error(self, capsys, tmp_json):
        blob = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0}
        code, _, err = run(capsys, ["validate", "--config", tmp_json("m.json", blob)])
        assert code == 1
        assert "nu" in err

    @pytest.mark.parametrize("model, field, value", [
        (MQ, "d", True), (MQ, "d", 2.5), (MQ, "d", math.inf),
        (LM, "L_max", 1.5), (LM, "L_max", math.inf), (LM, "K_max", "7"),
        (MQ, "sigma", ["1", "1"]), (MQ, "sigma", 1), (MQ, "sigma", [1, 1, 1]),
        (LM, "Lmax", 5), (MQ, "L_max", 5),
    ])
    def test_off_schema_model_field_usage_error(self, capsys, tmp_json, model, field,
                                                value):
        # model.schema.json types, array lengths and keys
        path = tmp_json("m.json", dict(model, **{field: value}))
        code, out, err = run(capsys, ["validate", "--config", path, "--l-max", "4"])
        assert code == 1 and out == "" and "Traceback" not in err
        assert path in err and f"field '{field}" in err

    def test_malformed_json_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"model": "legendre_matern",')
        code, _, err = run(capsys, ["validate", "--config", str(path)])
        assert code == 1
        assert "line" in err

    def test_malformed_toml_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text('model = "legendre_matern"\nsigma == 1.0\n')
        code, _, err = run(capsys, ["validate", "--config", str(path)])
        assert code == 1
        assert "line 2" in err

    def test_toml_config_accepted(self, capsys, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text(
            'model = "legendre_matern"\nsigma = 1.0\nalpha = 1.0\nnu = 1.0\n'
            'L_max = 20\nK_max = 10\n')
        code, out, _ = run(capsys, ["validate", "--config", str(path)])
        assert code == 0 and json.loads(out)["variant"] == "fourier_diagonal"

    @pytest.mark.parametrize("text", [
        pytest.param('model = "legendre_matern"  # comment after a value\n'
                     'sigma = 1.0\nalpha = 1.0\nnu = 1.0 # another\n',
                     id="comment_after_value"),
        pytest.param('model = "multiquadratic"\nd = 2\nsigma = [1, 1]\n'
                     'rho12 = 0.4\nalpha = [\n  0.5,\n  0.5,\n  0.45,  # alpha_12\n]\n',
                     id="multiline_array"),
        pytest.param("model = 'legendre_matern'\nsigma = 1.0\nalpha = 1.0\nnu = 1.0\n",
                     id="literal_string"),
    ])
    def test_toml_syntax_accepted(self, capsys, tmp_path, text):
        path = tmp_path / "m.toml"
        path.write_text(text)
        code, out, _ = run(capsys, ["validate", "--config", str(path), "--l-max", "20"])
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize("line", ["sigma = 1.", "sigma = .5", "sigma = Infinity",
                                      "sigma = 01", "nu = 2.0"],
                             ids=["trailing_dot", "leading_dot", "infinity",
                                  "leading_zero", "duplicate_key"])
    def test_non_toml_rejected(self, capsys, tmp_path, line):
        # not TOML v1.0: a bare dot, Infinity, a leading zero, a duplicate key
        path = tmp_path / "m.toml"
        path.write_text(f'model = "legendre_matern"\nsigma = 1.0\nalpha = 1.0\n'
                        f'nu = 1.0\n{line}\n')
        code, out, err = run(capsys, ["validate", "--config", str(path)])
        assert code == 1 and out == ""
        assert f"malformed TOML in {path}" in err and "line 5" in err


class TestKernel:
    def test_zero_angle_row(self, capsys, tmp_json):
        code, out, _ = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ),
                                    "--thetas", "0", "--l-max", "50"])
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        header, row = rows[0], rows[1]
        assert header[0] == "theta" and header[5] == "tail_bound"
        r = dict(zip(header, row))
        assert float(r["R[0][0]"]) == pytest.approx(1.0, abs=1e-10)
        assert float(r["R[0][1]"]) == pytest.approx(0.4, abs=1e-10)

    def test_d3_closed_form_matches_series(self, capsys, tmp_json):
        thetas = ",".join(str(k * math.pi / 8) for k in range(9))
        code, out, _ = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ_D3),
                                    "--thetas", thetas, "--l-max", "400"])
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        header = rows[0]
        for row in rows[1:]:
            r = dict(zip(header, row))
            assert r["closed_form_series_consistent"] == "1"
            for i in range(2):
                for j in range(2):
                    assert abs(float(r[f"R[{i}][{j}]"]) - float(r[f"cf[{i}][{j}]"])) < 1e-8

    def test_theta_just_past_pi_accepted(self, capsys, tmp_json):
        # 3.1415926545 exceeds pi by 9.2e-10, inside the --thetas allowance;
        # the closed-form columns must accept every angle the parser does
        code, out, err = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ),
                                      "--thetas", "3.1415926545", "--l-max", "10"])
        assert code == 0 and "Traceback" not in err
        assert out.splitlines()[1].startswith("3.1415926545,")

    def test_empty_theta_list_usage_error(self, capsys, tmp_json):
        code, _, err = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ),
                                    "--thetas", " "])
        assert code == 1

    @pytest.mark.parametrize("thetas", ["nan", "0.5,nan", "inf", "0,-inf"])
    def test_non_finite_theta_usage_error(self, capsys, tmp_json, thetas):
        code, out, err = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ),
                                      "--thetas", thetas, "--l-max", "10"])
        assert code == 1 and out == ""
        assert "thetas must be finite" in err

    @pytest.mark.parametrize("thetas, message", [
        ("abc", "cannot parse theta list"), (",", "empty theta list"),
        ("-0.1", "thetas must lie in [0, pi]"), ("3.2", "thetas must lie in [0, pi]")])
    def test_bad_theta_list_usage_error(self, capsys, tmp_json, thetas, message):
        code, out, err = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ),
                                      "--thetas", thetas, "--l-max", "10"])
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: {message}")

    def test_fourier_labels(self, capsys, tmp_json):
        lm = dict(LM, L_max=10, K_max=4)
        code, out, _ = run(capsys, ["kernel", "--config", tmp_json("m.json", lm),
                                    "--thetas", "0.5"])
        assert code == 0
        header = out.strip().splitlines()[0].split(",")
        assert header[1] == "gamma[0]" and header[5] == "gamma[4]"


class TestSample:
    def test_reruns_byte_identical(self, capsys, tmp_json, tmp_path):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 4, "seed": 7})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                      "--n-samples", "2", "--seed", "5",
                                      "--l-max", "8", "--out", str(out)])
            assert code == 0
        for name in ("sample_0000.csv", "sample_0001.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("model, spec", [
        (MQ, {"kind": "points", "d": 2, "points": [[0, 0, 1], [0.6, 0.8, 0.0]]}),
        (MQ, {"kind": "uniform", "d": 2, "n": 3, "seed": 4.0, "stream": 2}),
        (MQ, {"kind": "equiangular", "n_polar": 2, "n_azimuth": 3}),
        (dict(MQ, d=1), {"kind": "equispaced", "n": 5}),
    ], ids=["points", "uniform", "equiangular", "equispaced"])
    def test_manifest_obeys_schema_for_every_grid_kind(self, capsys, tmp_json,
                                                       tmp_path, model, spec):
        out = tmp_path / "run"
        code, _, _ = run(capsys, ["sample", "--config", tmp_json("m.json", model),
                                  "--grid", tmp_json("g.json", spec), "--n-samples", "1",
                                  "--l-max", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        validate_schema("manifest.schema.json", manifest)
        assert manifest["grid"] == spec

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "equiangular", "n_polar": 2.5, "n_azimuth": 3}, "'n_polar'"),
        ({"kind": "equiangular", "n_polar": True, "n_azimuth": 3}, "'n_polar'"),
        ({"kind": "equispaced", "n": "5"}, "'n'"),
        ({"kind": "uniform", "d": 2, "n": 3, "spacing": 1}, "'spacing'"),
        ({"kind": "uniform", "d": 2, "n": 3, "seed": 1e300}, "seed"),
        ({"kind": "points", "d": 2, "points": [[0, 0, "1"]]}, "'points[0][2]'"),
        ({"kind": "equiangular", "n_polar": 2}, "'n_azimuth'"),
        ({"kind": "uniform", "d": 2, "n": 0}, "grid must contain at least one point"),
    ], ids=["float", "bool", "string", "unknown_key", "huge_seed", "string_point",
            "missing_key", "no_points"])
    def test_off_schema_grid_spec_names_the_key(self, capsys, tmp_json, tmp_path,
                                                spec, key):
        grid = tmp_json("g.json", spec)
        out = tmp_path / "run"
        code, stdout, err = run(capsys, ["sample", "--config", tmp_json("m.json", MQ),
                                         "--grid", grid, "--n-samples", "1",
                                         "--l-max", "3", "--out", str(out)])
        assert code == 1 and stdout == ""
        assert err.startswith(f"usage error: bad grid spec {grid}: ") and key in err
        assert len(err) < 200 and not (out / "manifest.json").exists()

    def test_grid_dimension_mismatch_usage_error(self, capsys, tmp_json, tmp_path):
        out = tmp_path / "run"
        code, stdout, err = run(capsys, [
            "sample", "--config", tmp_json("m.json", MQ),
            "--grid", tmp_json("g.json", {"kind": "equispaced", "n": 5}),
            "--n-samples", "1", "--l-max", "3", "--out", str(out)])
        assert code == 1 and stdout == ""
        assert err == "usage error: grid dimension 1 does not match model d=2\n"
        assert not out.exists()

    def test_manifest_schema_and_streams(self, capsys, tmp_json, tmp_path):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "equiangular", "n_polar": 2,
                                   "n_azimuth": 3})
        out = tmp_path / "run"
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "3", "--seed", "1",
                                  "--l-max", "5", "--stream", "10",
                                  "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        validate_schema("manifest.schema.json", manifest)
        assert manifest["streams"] == [10, 11, 12]
        # distinct streams produce distinct files
        a = (out / "sample_0000.csv").read_bytes()
        b = (out / "sample_0001.csv").read_bytes()
        assert a != b

    def test_degree_zero_model_constant_samples(self, capsys, tmp_json, tmp_path):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 5, "seed": 2})
        out = tmp_path / "run"
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "1", "--l-max", "0",
                                  "--out", str(out)])
        assert code == 0
        rows = (out / "sample_0000.csv").read_text().strip().splitlines()[1:]
        values = np.array([[float(x) for x in r.split(",")[3:]] for r in rows])
        assert np.allclose(values, values[0], atol=1e-15)

    def test_outdir_env_default(self, capsys, tmp_json, tmp_path, monkeypatch):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 2, "seed": 3})
        outdir = tmp_path / "envout"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir))
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "1", "--l-max", "3"])
        assert code == 0 and (outdir / "manifest.json").exists()

    def test_zero_samples_usage_error(self, capsys, tmp_json, tmp_path):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 2, "seed": 3})
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "0", "--out", str(tmp_path)])
        assert code == 1

    def test_sample_builds_no_basis(self, capsys, tmp_json, tmp_path, basis_calls):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 4, "seed": 7})
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "3", "--l-max", "6",
                                  "--out", str(tmp_path / "run")])
        assert code == 0
        assert basis_calls == []

    def test_field_groups_leave_bytes_unchanged(self, capsys, tmp_json, tmp_path,
                                                monkeypatch):
        cfg = tmp_json("m.json", dict(LM, L_max=12, K_max=3))
        grid = tmp_json("g.json", {"kind": "equiangular", "n_polar": 5,
                                   "n_azimuth": 8})
        walks = []
        real = sim.iter_degree_blocks

        def counted(*args):
            walks.append(args[1])
            return real(*args)

        monkeypatch.setattr(sim, "iter_degree_blocks", counted)
        runs = {}
        # one field per group, then all four fields in one group
        for budget in (1, 10**9):
            monkeypatch.setattr(sim, "_BATCH_ELEMS", budget)
            out = tmp_path / f"run{budget}"
            code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                      "--n-samples", "4", "--seed", "2",
                                      "--out", str(out)])
            assert code == 0
            runs[budget] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert walks == [12] * 4 + [12]
        assert len(runs[1]) == 5 and runs[1] == runs[10**9]

    def test_large_grid_never_allocates_the_basis(self, capsys, tmp_json, tmp_path):
        n_points, l_max = 4000, 100
        basis_bytes = n_points * (l_max + 1) ** 2 * 8             # 326 MB
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": n_points,
                                   "seed": 1})
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                      "--n-samples", "2", "--l-max", str(l_max),
                                      "--out", str(tmp_path / "run")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # the recurrence state is (8 L + 6) * n * 8 bytes = 26 MB
        assert peak < basis_bytes / 8

    def test_toml_grid_spec(self, capsys, tmp_json, tmp_path):
        grid = tmp_path / "g.toml"
        grid.write_text('kind = "uniform"\nd = 2\nn = 4\nseed = 7\n')
        out = tmp_path / "run"
        code, _, _ = run(capsys, ["sample", "--config", tmp_json("m.json", MQ),
                                  "--grid", str(grid), "--n-samples", "1",
                                  "--l-max", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"] == {"kind": "uniform", "d": 2, "n": 4, "seed": 7}

    def test_json_format(self, capsys, tmp_json, tmp_path):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 2, "seed": 3})
        out = tmp_path / "run"
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "1", "--l-max", "3",
                                  "--format", "json", "--out", str(out)])
        assert code == 0
        obj = json.loads((out / "sample_0000.json").read_text())
        assert obj["L_max"] == 3


@pytest.mark.parametrize("flags", [
    pytest.param(["--seed", "-1"], id="seed_negative"),
    pytest.param(["--seed", str(2 ** 64)], id="seed_2_64"),
    pytest.param(["--stream", "-1"], id="stream_negative"),
    pytest.param(["--stream", str(2 ** 64)], id="stream_2_64"),
    pytest.param(["--stream", str(2 ** 64 - 2), "--n-samples", "3"],
                 id="last_stream_2_64"),
])
def test_sample_key_out_of_range_usage_error(capsys, tmp_json, tmp_path, flags):
    argv = ["sample", "--config", tmp_json("m.json", MQ), "--grid",
            tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3}),
            "--n-samples", "1", "--l-max", "2", "--out", str(tmp_path / "run"),
            *flags]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert "must lie in [0, 2^64)" in err
    assert not (tmp_path / "run").exists()


def test_sample_key_range_edges_accepted(capsys, tmp_json, tmp_path):
    top = 2 ** 64 - 1
    code, _, _ = run(capsys, [
        "sample", "--config", tmp_json("m.json", MQ), "--grid",
        tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3}),
        "--n-samples", "2", "--l-max", "2", "--seed", str(top),
        "--stream", str(top - 1), "--out", str(tmp_path / "run")])
    assert code == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == top and manifest["streams"] == [top - 1, top]


# The `sample` tests below force the worker count, so that they fan out on a
# machine with one CPU too; each child is checked to be reaped afterwards.

@pytest.fixture
def forked(monkeypatch):
    """Pids of the processes forked through ``os.fork`` during the test."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def sample_in_two_workers(capsys, tmp_json, tmp_path, monkeypatch, write_of,
                          n_samples=4):
    """Run `sample` on two workers, each field going through
    ``write_of(in_child, sample)`` before it is written."""
    parent = os.getpid()
    real = cli.write_field_csv

    def patched(sample, path):
        write_of(os.getpid() != parent, sample)
        return real(sample, path)

    monkeypatch.setattr(cli, "write_field_csv", patched)
    monkeypatch.setattr(cli, "_worker_count", lambda n: min(2, n))
    return run(capsys, ["sample", "--config", tmp_json("m.json", MQ), "--grid",
                        tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3}),
                        "--n-samples", str(n_samples), "--l-max", "3",
                        "--out", str(tmp_path / "run")])


def test_worker_out_of_memory_exits_2(capsys, tmp_json, tmp_path, monkeypatch, forked):
    def write_of(in_child, sample):
        if in_child:
            raise MemoryError("Unable to allocate 12.0 GiB for an array")

    code, out, err = sample_in_two_workers(capsys, tmp_json, tmp_path, monkeypatch,
                                           write_of)
    assert code == 2 and out == ""
    assert "out of memory: Unable to allocate 12.0 GiB" in err
    assert "lower --l-max" in err and "Traceback" not in err
    assert len(forked) == 1
    assert_reaped(forked)


def test_killed_worker_exits_2(capsys, tmp_json, tmp_path, monkeypatch, forked):
    def write_of(in_child, sample):
        if in_child:
            os.kill(os.getpid(), signal.SIGKILL)

    code, out, err = sample_in_two_workers(capsys, tmp_json, tmp_path, monkeypatch,
                                           write_of)
    assert code == 2 and out == ""
    assert "the sample worker for streams 2..3 was killed by SIGKILL" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert len(forked) == 1
    assert_reaped(forked)


def test_failed_parent_share_kills_workers(capsys, tmp_json, tmp_path, monkeypatch,
                                           forked):
    def write_of(in_child, sample):
        if in_child:
            time.sleep(60)   # killed long before this ends
        raise MemoryError("Unable to allocate 12.0 GiB for an array")

    start = time.monotonic()
    code, _, err = sample_in_two_workers(capsys, tmp_json, tmp_path, monkeypatch,
                                         write_of)
    assert time.monotonic() - start < 30
    assert code == 2 and "out of memory" in err
    assert len(forked) == 1
    assert_reaped(forked)


def test_worker_write_error_names_the_output(capsys, tmp_json, tmp_path, monkeypatch,
                                            forked):
    def write_of(in_child, sample):
        if in_child:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    code, out, err = sample_in_two_workers(capsys, tmp_json, tmp_path, monkeypatch,
                                           write_of)
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"cannot write {tmp_path / 'run'}: No space left on device" in err
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert len(forked) == 1
    assert_reaped(forked)


def _fork_fails(capsys, tmp_json, tmp_path, monkeypatch):
    """A 2-field `sample` whose worker cannot be forked: its stderr."""
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_worker_count", lambda n: min(2, n))
    code, out, err = run(capsys, ["sample", "--config", tmp_json("m.json", MQ), "--grid",
                                  tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3}),
                                  "--n-samples", "2", "--l-max", "3",
                                  "--out", str(tmp_path / "run")])
    assert code == 2 and out == ""
    assert not (tmp_path / "run" / "manifest.json").exists()
    return err


def _child_exits(capsys, tmp_json, tmp_path, monkeypatch):
    """``_run_shares`` with a child that leaves with status 5: the error."""
    parent = os.getpid()

    def run_share(share):
        if os.getpid() != parent:
            os._exit(5)
        return share

    shares = [[argparse.Namespace(stream=0)],
              [argparse.Namespace(stream=1), argparse.Namespace(stream=2)]]
    with pytest.raises(cli.WorkerError) as info:
        cli._run_shares(run_share, shares)
    return str(info.value)


@pytest.mark.parametrize("case, message", [
    (_fork_fails, "error: cannot start a sample worker: "
                  f"{os.strerror(errno.EAGAIN)}\n"),
    (_child_exits, "the sample worker for streams 1..2 exited with status 5 and no result"),
], ids=["fork_fails", "child_exits_without_result"])
def test_worker_failures(capsys, tmp_json, tmp_path, monkeypatch, forked, case, message):
    assert case(capsys, tmp_json, tmp_path, monkeypatch) == message
    assert_reaped(forked)


def test_workers_only_write(capsys, tmp_json, tmp_path, monkeypatch, forked):
    # a forked worker holds no recurrence state or group values and calls no
    # BLAS: every field is synthesized in the CLI process
    parent = os.getpid()
    real = sim.iter_degree_blocks
    walks = []

    def walk(*args):
        assert os.getpid() == parent, "a worker walked the recurrence"
        walks.append(args[1])
        return real(*args)

    monkeypatch.setattr(sim, "iter_degree_blocks", walk)
    monkeypatch.setattr(sim, "_BATCH_ELEMS", 3 * 3 * 2)   # groups of 3 fields
    code, _, _ = sample_in_two_workers(capsys, tmp_json, tmp_path, monkeypatch,
                                       lambda in_child, sample: None, n_samples=5)
    assert code == 0
    assert walks == [3, 3]
    assert len(forked) == 2
    assert_reaped(forked)


def test_no_affinity_api_means_one_worker(capsys, tmp_json, tmp_path, monkeypatch,
                                          forked):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._worker_count(5) == 1
    code, _, _ = run(capsys, ["sample", "--config", tmp_json("m.json", MQ), "--grid",
                              tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3}),
                              "--n-samples", "5", "--l-max", "3",
                              "--out", str(tmp_path / "run")])
    assert code == 0 and forked == []
    assert len(list((tmp_path / "run").iterdir())) == 6


FAN_OUT_SCRIPT = """
import sys
from spherefield import cli, simulate

simulate._BATCH_ELEMS = 3 * 40 * 7   # groups of at most 3 fields of 40 x 7 values
out, config, grid = sys.argv[1:]
real_count = cli._worker_count
for fmt in ("csv", "json"):
    for n in (1, 2, 3, 5):
        for workers in ("1", "real", "3"):
            cli._worker_count = (real_count if workers == "real"
                                 else lambda n_samples: min(int(workers), n_samples))
            code = cli.main(["sample", "--config", config, "--grid", grid,
                             "--n-samples", str(n), "--seed", "4", "--stream", "9",
                             "--format", fmt, "--out", f"{out}/{fmt}{n}-{workers}"])
            assert code == 0, code
"""


@pytest.mark.slow
@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_fan_out_leaves_bytes_unchanged(tmp_json, tmp_path, blas_threads):
    cfg = tmp_json("m.json", dict(LM, L_max=12, K_max=3))
    grid = tmp_json("g.json", {"kind": "equiangular", "n_polar": 5, "n_azimuth": 8})
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FAN_OUT_SCRIPT, str(tmp_path),
                           cfg, grid], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for fmt in ("csv", "json"):
        for n in (1, 2, 3, 5):
            runs = {workers: {p.name: p.read_bytes()
                              for p in (tmp_path / f"{fmt}{n}-{workers}").iterdir()}
                    for workers in ("1", "real", "3")}
            assert len(runs["1"]) == n + 1
            assert runs["real"] == runs["1"] and runs["3"] == runs["1"], (fmt, n)


def test_cli_import_loads_no_pool_machinery():
    # mc-check and the algebra commands must not pay for sample's fan-out
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; import spherefield.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert not [m for m in loaded
                if m.split(".")[0] in ("multiprocessing", "concurrent")]


ALGEBRA_FOOTPRINT_SCRIPT = """
import json, sys
from spherefield import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in ("_hashlib", "numpy.random")
                               if m in sys.modules)]))
"""


@pytest.mark.parametrize("command", [
    ["validate", "--config", "{m}"],
    ["kernel", "--config", "{m}", "--thetas", "0,1"],
    ["equiv", "{m}", "{m}", "--l-max", "64"],
    ["schoenberg-export", "--config", "{m}"],
], ids=lambda c: c[0])
def test_algebra_commands_load_neither_openssl_nor_numpy_random(tmp_json, command):
    # only sample hashes; these short runs must not map libcrypto
    m = tmp_json("m.json", MQ)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", ALGEBRA_FOOTPRINT_SCRIPT,
         *(arg.format(m=m) for arg in command)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert loaded == []


class TestEquiv:
    def test_identical_models_equivalent(self, capsys, tmp_json):
        a = tmp_json("a.json", LM)
        b = tmp_json("b.json", LM)
        code, out, _ = run(capsys, ["equiv", a, b, "--l-max", "64", "--k-max", "64"])
        assert code == 0
        report = json.loads(out)
        validate_schema("equivalence_report.schema.json", report)
        verdicts = {v["provenance"]: v["verdict"] for v in report["verdicts"]}
        assert verdicts["closed_form"] == "equivalent"

    def test_nu_mismatch_orthogonal(self, capsys, tmp_json):
        code, out, _ = run(capsys, ["equiv", tmp_json("a.json", LM),
                                    tmp_json("b.json", LM_NU),
                                    "--l-max", "128", "--k-max", "64"])
        assert code == 3
        verdicts = {v["provenance"]: v["verdict"]
                    for v in json.loads(out)["verdicts"]}
        assert verdicts == {"closed_form": "orthogonal", "numeric": "orthogonal"}

    def test_sigma_mismatch_multiquadratic(self, capsys, tmp_json):
        other = dict(MQ, sigma=[1.1, 1.0])
        code, out, _ = run(capsys, ["equiv", tmp_json("a.json", MQ),
                                    tmp_json("b.json", other), "--l-max", "128"])
        assert code == 3

    def test_report_files_written(self, capsys, tmp_json, tmp_path):
        prefix = str(tmp_path / "rep")
        code, _, _ = run(capsys, ["equiv", tmp_json("a.json", LM),
                                  tmp_json("b.json", LM_ALPHA),
                                  "--l-max", "64", "--k-max", "32",
                                  "--out", prefix])
        assert code == 0  # the closed form says equivalent
        report = json.loads((tmp_path / "rep.json").read_text())
        validate_schema("equivalence_report.schema.json", report)
        with open(tmp_path / "rep.csv") as fh:
            assert fh.readline().strip() == "l,term,partial_sum"

    def test_mixed_families_rejected(self, capsys, tmp_json):
        code, _, err = run(capsys, ["equiv", tmp_json("a.json", MQ),
                                    tmp_json("b.json", LM)])
        assert code == 1
        assert "families differ" in err

    def test_too_few_terms_usage_error(self, capsys, tmp_json):
        code, out, err = run(capsys, ["equiv", tmp_json("a.json", MQ),
                                      tmp_json("b.json", dict(MQ, rho12=0.3)),
                                      "--l-max", "8"])
        assert code == 1
        assert out == ""
        assert "at least 32" in err and "Traceback" not in err

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_k_max_below_one_usage_error(self, capsys, tmp_json, k_max):
        code, out, err = run(capsys, ["equiv", tmp_json("a.json", LM),
                                      tmp_json("b.json", LM), "--l-max", "40",
                                      "--k-max", k_max])
        assert code == 1
        assert out == ""
        assert "--k-max" in err and "Traceback" not in err

    def test_k_max_with_multiquadratic_usage_error(self, capsys, tmp_json):
        mq, lm = tmp_json("mq.json", MQ), tmp_json("lm.json", LM)
        code, out, err = run(capsys, ["equiv", mq, mq, "--l-max", "40",
                                      "--k-max", "5"])
        assert code == 1
        assert out == ""
        assert "--k-max is for Legendre-Matern configs only" in err
        assert "Traceback" not in err
        # the family check comes first
        code, out, err = run(capsys, ["equiv", mq, lm, "--l-max", "40",
                                      "--k-max", "5"])
        assert code == 1 and out == "" and "families differ" in err

    def test_wide_spectrum_reference_accepted(self, capsys, tmp_json):
        # the model validate accepts at 200 is an admissible reference too
        a = tmp_json("a.json", MQ_WIDE)
        code, out, err = run(capsys, ["equiv", a, a, "--l-max", "200"])
        assert code == 0 and "Traceback" not in err
        verdicts = {v["provenance"]: v["verdict"]
                    for v in json.loads(out)["verdicts"]}
        assert verdicts == {"closed_form": "equivalent", "numeric": "equivalent"}

    def test_underflowed_reference_invalid_model(self, capsys, tmp_json):
        # the diagonal of the default MQ model underflows to 0 at degree 1075
        code, out, err = run(capsys, ["equiv", tmp_json("a.json", MQ),
                                      tmp_json("b.json", MQ), "--l-max", "1200"])
        assert code == 2
        assert out == ""
        assert "strictly positive" in err and "degree 1075" in err

    @pytest.mark.parametrize("l_max", [500, 535])
    def test_eigenspace_dimension_beyond_float64(self, capsys, tmp_json, l_max):
        # at d = 535, h(l) is beyond float64 from degree 496 on while the
        # terms of these pairs are not
        mq = dict(MQ, d=535, alpha=[0.5, 0.5, 0.5])
        a, b = tmp_json("a.json", mq), tmp_json("b.json", dict(mq, rho12=0.3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["equiv", a, b, "--l-max", str(l_max)])
            same_code, _, same_err = run(capsys, ["equiv", a, a, "--l-max", str(l_max)])
        assert (code, same_code) == (3, 0)
        assert "Traceback" not in err + same_err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        report = json.loads(out)
        validate_schema("equivalence_report.schema.json", report)
        assert [v["verdict"] for v in report["verdicts"]] == ["orthogonal"] * 2
        # at 500 the window's partial sums overflow; at 535 its terms do
        assert ("tail_rel_growth=inf" in err) == (l_max == 500)

    def test_verdict_disagreement_is_loud(self, capsys, tmp_json, monkeypatch):
        # a numeric verdict contradicting the closed form signals an
        # undersized truncation or a bug; the command must not pick a side
        from spherefield import equivalence as eq

        def fake_numeric(series):
            return {"verdict": eq.ORTHOGONAL, "provenance": eq.NUMERIC,
                    "diagnostics": "forced"}

        monkeypatch.setattr(cli, "classify_numeric", fake_numeric)
        code, _, err = run(capsys, ["equiv", tmp_json("a.json", LM),
                                    tmp_json("b.json", LM_ALPHA),
                                    "--l-max", "64", "--k-max", "32"])
        assert code == 2
        assert "disagree" in err


class TestMcCheck:
    def test_library_report_is_stdout(self, capsys, tmp_json):
        # mc-check prints the object that monte_carlo_kernel_check returns
        seq = md.build_sequence(md.params_from_dict(MQ), 5)
        report = sim.monte_carlo_kernel_check(seq, cli._axis_pairs(2, [0.0, 1.0]), 50)
        code, out, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--thetas", "0,1", "--n-samples", "50",
                                    "--l-max", "5"])
        assert code == 0 and json.loads(out) == report

    def test_infinite_z_is_null_and_inf_on_stderr(self, capsys, tmp_json):
        # alpha = 1e300 samples a zero field; against alpha = 1 every standard
        # error is 0 and every difference nonzero, so every z-score is infinite
        sampled = dict(LM, alpha=1e300, L_max=5, K_max=4)
        code, out, err = run(capsys, [
            "mc-check", "--config", tmp_json("m.json", sampled),
            "--analytic-config", tmp_json("a.json", dict(sampled, alpha=1.0)),
            "--thetas", "0,1", "--n-samples", "10"])
        assert code == 3
        assert json.loads(out)["z_max"] is None
        assert err == "max |z| = inf over 2 pairs (threshold 4.0)\n"

    def test_self_consistent_passes(self, capsys, tmp_json):
        code, out, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--thetas", "0,1.0,2.5",
                                    "--n-samples", "2000", "--seed", "3",
                                    "--l-max", "10"])
        assert code == 0
        report = json.loads(out)
        validate_schema("check_report.schema.json", report)
        assert report["passed"]

    def test_inflated_scale_fails(self, capsys, tmp_json):
        inflated = dict(MQ, sigma=[1.2, 1.2])
        code, out, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--analytic-config", tmp_json("i.json", inflated),
                                    "--thetas", "0,1.0",
                                    "--n-samples", "2000", "--seed", "3",
                                    "--l-max", "10"])
        assert code == 3
        assert not json.loads(out)["passed"]

    def test_shorter_analytic_truncation_extended(self, capsys, tmp_json):
        # the analytic model is built at the sampled L_max, 20 here, so it
        # is the sampled model itself
        sampled = dict(LM, L_max=20, K_max=4)
        argv = ["mc-check", "--config", tmp_json("m.json", sampled),
                "--thetas", "0,1.0", "--n-samples", "50", "--seed", "3"]
        expected = run(capsys, argv)
        code, out, err = run(capsys, argv + [
            "--analytic-config", tmp_json("a.json", dict(sampled, L_max=10))])
        assert (code, out, err) == expected
        assert json.loads(out)["L_max"] == 20

    @pytest.mark.parametrize("analytic", [dict(LM, L_max=20, K_max=6), MQ],
                             ids=["lm_k_max", "mq"])
    def test_incompatible_analytic_config_usage_error(self, capsys, tmp_json, analytic):
        sampled = dict(LM, L_max=20, K_max=4)
        code, out, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", sampled),
                                      "--analytic-config", tmp_json("a.json", analytic),
                                      "--thetas", "0,1.0", "--n-samples", "50"])
        assert code == 1 and out == "" and "Traceback" not in err
        assert "--analytic-config" in err and "coefficient size" in err

    def test_zero_samples_usage_error(self, capsys, tmp_json):
        code, _, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                  "--thetas", "0", "--n-samples", "0"])
        assert code == 1

    def test_missing_pair_source_usage_error(self, capsys, tmp_json):
        code, _, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--n-samples", "100"])
        assert code == 1

    def test_circle_thetas(self, capsys, tmp_json):
        # on S^1 the pairs are (1, 0) against (cos t, sin t)
        code, out, _ = run(capsys, ["mc-check", "--config",
                                    tmp_json("m.json", dict(MQ, d=1)),
                                    "--thetas", "0,1,3", "--n-samples", "200",
                                    "--l-max", "10"])
        assert code == 0
        report = json.loads(out)
        validate_schema("check_report.schema.json", report)
        assert [p["x"] for p in report["pairs"]] == [[1.0, 0.0]] * 3
        assert [p["y"] for p in report["pairs"]] == [
            [math.cos(t), math.sin(t)] for t in (0.0, 1.0, 3.0)]

    def test_pairs_file(self, capsys, tmp_json):
        pairs = {"pairs": [[[0, 0, 1], [0, 1, 0]]]}
        code, out, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--pairs", tmp_json("p.json", pairs),
                                    "--n-samples", "500", "--seed", "1",
                                    "--l-max", "6"])
        assert code == 0

    def test_pairs_file_unknown_field_usage_error(self, capsys, tmp_json):
        # a pairs file holds `pairs` alone, as a model block holds its fields
        path = tmp_json("p.json", {"pairs": [[[0, 0, 1], [0, 1, 0]]], "extra": 1})
        code, out, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                      "--pairs", path, "--n-samples", "10",
                                      "--l-max", "2"])
        assert code == 1 and out == ""
        assert err == f"usage error: bad pairs file {path}: unknown field 'extra'\n"

    def test_nan_theta_usage_error(self, capsys, tmp_json):
        code, out, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                      "--thetas", "0,nan", "--n-samples", "10",
                                      "--l-max", "4"])
        assert code == 1 and out == ""
        assert "thetas must be finite" in err

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--seed", 2 ** 64),
                                             ("--stream", -1), ("--stream", 2 ** 64)])
    def test_key_out_of_range_usage_error(self, capsys, tmp_json, flag, value):
        code, out, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                      "--thetas", "0", "--n-samples", "4",
                                      "--l-max", "2", flag, str(value)])
        assert code == 1 and out == ""
        assert "must lie in [0, 2^64)" in err

    def test_last_key_words_accepted(self, capsys, tmp_json):
        # every field draws from the one stream, so --n-samples adds no stream id
        top = 2 ** 64 - 1
        code, _, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                  "--thetas", "0", "--n-samples", "4", "--l-max", "2",
                                  "--seed", str(top), "--stream", str(top)])
        assert code in (0, 3)

    def test_negative_l_max_usage_error(self, capsys, tmp_json):
        code, _, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--thetas", "0", "--n-samples", "10",
                                    "--l-max", "-1"])
        assert code == 1
        assert "--l-max must be >= 0" in err


@pytest.mark.parametrize("command", ["mc-check", "sample"])
def test_out_of_memory_invalid_model(capsys, tmp_json, tmp_path, monkeypatch, command):
    # stands in for numpy refusing the draws of one field at a huge --l-max
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 12.0 GiB for an array with shape "
                          "(1, 4004001, 401) and data type float64")

    monkeypatch.setattr(sim, "synthesize_ensemble", refuse)
    monkeypatch.setattr(cli, "synthesize_fields", refuse)
    argv = [command, "--config", tmp_json("m.json", MQ), "--n-samples", "10",
            "--l-max", "4"]
    if command == "mc-check":
        argv += ["--thetas", "0"]
    else:
        argv += ["--grid", tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3}),
                 "--out", str(tmp_path)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "out of memory: Unable to allocate 12.0 GiB" in err
    assert "lower --l-max" in err


def test_failed_ensemble_draw_exits_2(capsys, tmp_json, monkeypatch):
    def on_draw(call):   # the second draw runs on the ensemble's worker thread
        if call == 2:
            raise MemoryError("Unable to allocate 12.0 GiB for an array")

    patch_draws(monkeypatch, on_draw)
    threads = threading.active_count()
    code, out, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                  "--thetas", "0,1", "--n-samples", "10",
                                  "--l-max", "4"])
    assert code == 2 and out == ""
    assert "out of memory: Unable to allocate 12.0 GiB" in err
    assert "lower --l-max" in err and "Traceback" not in err
    assert threading.active_count() == threads


def test_huge_config_truncation_out_of_memory(tmp_json):
    # Run under an address-space limit: a build that allocated the stack
    # anyway then fails at once here, instead of filling physical memory.
    limit = 1 << 30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spherefield.cli", "validate",
         "--config", tmp_json("m.json", dict(LM, L_max=1e12))],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=limit_address_space)
    assert proc.returncode == cli.EXIT_INVALID, proc.stderr
    assert "out of memory: the degree-1000000000000, frequency-200" in proc.stderr
    assert "physical memory" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, config", [
    (["--l-max", "1" + "0" * 400], MQ),
    ([], dict(LM, L_max=10 ** 400)),
], ids=["l_max_flag", "config_L_max"])
def test_truncation_beyond_float64_out_of_memory(capsys, tmp_json, argv, config):
    # the byte count of such a stack is beyond float64, so is its GiB figure
    code, out, err = run(capsys, ["validate", "--config", tmp_json("m.json", config)]
                         + argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("out of memory: the degree-1" + "0" * 400)
    assert "-bit number of bytes, more than the" in err


@pytest.mark.parametrize("role, name, content", [
    pytest.param("config", "bad.json", None, id="config_is_directory"),
    pytest.param("config", "bad.json", b"\xff\xfe{}", id="config_not_utf8"),
    pytest.param("config", "bad.toml", b"\xff\xfe", id="toml_not_utf8"),
    pytest.param("config", "bad.json", b"[1, 2]", id="config_top_level_array"),
    pytest.param("grid", "bad.json", b'{"kind": "uniform", "d": 2, "n": [3]}',
                 id="grid_list_count"),
    pytest.param("pairs", "bad.json", b'{"pairs": {"a": 1}}', id="pairs_not_a_list"),
    pytest.param("pairs", "bad.json", b'{"pairs": [[1, 2, 3]]}', id="pairs_bad_shape"),
    pytest.param("pairs", "bad.json", b'{"pairs": [[[0, 0, 2], [0, 1, 0]]]}',
                 id="pairs_not_unit"),
    pytest.param("grid", "bad.json",
                 b'{"kind": "points", "d": 2, "points": [[0, 0, 1], [NaN, 0, 0]]}',
                 id="grid_nan_point"),
    pytest.param("pairs", "bad.json", b'{"pairs": [[[0, 0, 1], [NaN, 1, 0]]]}',
                 id="pairs_nan_point"),
    pytest.param("grid", "bad.json", b'{"kind": "points", "d": 2, "points": [[1e200, 0, 0]]}',
                 id="grid_huge_coordinate"),
])
def test_bad_input_file_usage_error(capsys, tmp_json, tmp_path, role, name, content):
    bad = tmp_path / name
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    config = str(bad) if role == "config" else tmp_json("m.json", MQ)
    argv = {
        "config": ["validate", "--config", config],
        "grid": ["sample", "--config", config, "--grid", str(bad),
                 "--n-samples", "1", "--l-max", "2", "--out", str(tmp_path / "run")],
        "pairs": ["mc-check", "--config", config, "--pairs", str(bad),
                  "--n-samples", "10", "--l-max", "2"],
    }[role]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert str(bad) in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("grid", [
    {"kind": "equispaced", "n": 1e12},
    {"kind": "uniform", "d": 2, "n": 1e12},
    {"kind": "equiangular", "n_polar": 10 ** 6, "n_azimuth": 10 ** 6},
], ids=lambda grid: grid["kind"])
def test_grid_beyond_memory_names_the_grid_spec(capsys, tmp_json, tmp_path, grid):
    config = dict(MQ, d=1) if grid["kind"] == "equispaced" else MQ
    spec = tmp_json("g.json", grid)
    code, out, err = run(capsys, ["sample", "--config", tmp_json("m.json", config),
                                  "--grid", spec, "--n-samples", "1", "--l-max", "2",
                                  "--out", str(tmp_path / "run")])
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"out of memory: grid spec {spec}: a grid of 1000000000000 points" in err
    assert "--l-max" not in err


def test_ensemble_beyond_memory_names_n_samples(capsys, tmp_json, monkeypatch):
    # the ensemble's (n_samples, n_points, dim) output is refused before it
    # is allocated: 1e10 fields on 2 points of 2 entries need 298 GiB
    monkeypatch.setattr(_memory, "physical_memory", lambda: 8 * 2 ** 30)
    code, out, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                  "--thetas", "0,1", "--n-samples", "10000000000",
                                  "--l-max", "5"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert ("out of memory: an ensemble of 10000000000 fields on 2 points "
            "needs 298.0 GiB") in err
    assert "--n-samples" in err and "--l-max" not in err


def test_manifest_beyond_memory_names_n_samples(capsys, tmp_json, tmp_path,
                                               monkeypatch):
    # the stream ids, file entries and manifest of 1e10 samples are refused
    # before any of them is built, and before the output directory is made
    monkeypatch.setattr(_memory, "physical_memory", lambda: 8 * 2 ** 30)
    grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3})
    code, out, err = run(capsys, ["sample", "--config", tmp_json("m.json", MQ),
                                  "--grid", grid, "--n-samples", "10000000000",
                                  "--l-max", "5", "--out", str(tmp_path / "out")])
    assert code == 2 and out == "" and "Traceback" not in err
    assert "out of memory: the manifest of 10000000000 samples needs" in err
    assert "--n-samples" in err and "--l-max" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, target", [
    (["validate"], "missing/x"),
    (["kernel", "--thetas", "0,1"], "missing/x"),
    (["schoenberg-export"], "missing/x"),
    (["mc-check", "--thetas", "0,1", "--n-samples", "10"], "missing/x"),
    (["sample", "--grid", "{grid}", "--n-samples", "1"], "file"),
    (["sample", "--grid", "{grid}", "--n-samples", "1"], "file/x"),
], ids=["validate", "kernel", "export", "mc-check", "sample-file", "sample-in-file"])
def test_unwritable_out_names_the_path(capsys, tmp_json, tmp_path, command, target):
    (tmp_path / "file").write_text("")
    grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 3})
    out_path = tmp_path / target
    argv = [arg.format(grid=grid) for arg in command]
    code, out, err = run(capsys, argv[:1] + ["--config", tmp_json("m.json", MQ),
                                             "--l-max", "3", "--out", str(out_path)]
                         + argv[1:])
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"cannot write {out_path}: " in err


def test_unwritable_equiv_report_names_the_path(capsys, tmp_json, tmp_path):
    prefix = tmp_path / "missing" / "report"
    code, out, err = run(capsys, ["equiv", tmp_json("a.json", MQ), tmp_json("b.json", MQ),
                                  "--l-max", "40", "--out", str(prefix)])
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"cannot write {prefix}.json: No such file or directory" in err


def test_closed_stdout_pipe_exits_quietly(tmp_json):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spherefield.cli", "schoenberg-export",
         "--config", tmp_json("m.json", MQ), "--l-max", "800"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # the reader goes away, as with `| head -1`
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_USAGE
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.mark.parametrize("argv", [
    ["equiv", "{m}", "{m}", "--l-max", "40", "--policy-decay-margin", "0.2"],
    ["equiv", "{m}", "{m}", "--l-max", "40", "--policy-cauchy-eps", "1e-6"],
    ["equiv", "{m}", "{m}", "--l-max", "40", "--policy-floor", "1e-8"],
    ["mc-check", "--config", "{m}", "--thetas", "0", "--n-samples", "10",
     "--l-max", "4", "--z-threshold", "4"],
], ids=lambda argv: argv[-2])
def test_removed_flag_is_unrecognized(capsys, tmp_json, argv):
    m = tmp_json("m.json", MQ)
    code, out, err = run(capsys, [arg.format(m=m) for arg in argv])
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_every_option_is_documented():
    docs = (ROOT / "README.md").read_text() + (ROOT / "docs" / "formats.md").read_text()
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    undocumented = sorted({
        (name, opt) for name, command in commands.items()
        for action in command._actions if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
        if not re.search(re.escape(opt) + r"(?![\w-])", docs)})
    assert undocumented == []


def test_exit_code_table_matches_the_code():
    # the rows of docs/formats.md's "Exit codes" table, against cli's EXIT_*
    text = (ROOT / "docs" / "formats.md").read_text()
    section = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    documented = [int(code) for code in re.findall(r"^\| (\d+) \|", section, re.M)]
    constants = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert documented and sorted(documented) == sorted(constants)


# name -> (arguments, "{a}" and "{b}" naming the two configs; the models;
# the schema of stdout, None for an empty stdout; the exit code)
STRICT_JSON_CASES = {
    "validate-invalid-multiquadratic": (
        ["validate", "--config", "{a}"], [dict(MQ, alpha=[0.5, 0.5, 0.9])], None, 2),
    "validate-trace-overflow": (
        ["validate", "--config", "{a}"], [dict(LM, sigma=1.3e154, L_max=20, K_max=4)],
        "validity_report", 2),
    "validate-partial-sums-nan": (
        ["validate", "--config", "{a}"], [dict(MQ, d=100000, alpha=[0.5, 0.5, 0.5])],
        "validity_report", 2),
    "validate-infinite-tail": (
        ["validate", "--config", "{a}", "--l-max", "3"],
        [dict(MQ, d=10, rho12=1e-7, alpha=[0.9, 0.9, 0.5])], "validity_report", 0),
    "equiv": (["equiv", "{a}", "{b}", "--l-max", "64"], [LM, LM_ALPHA],
              "equivalence_report", 0),
    "equiv-partial-sums-overflow": (
        ["equiv", "{a}", "{b}", "--l-max", "500"],
        [dict(MQ, d=535, alpha=[0.5, 0.5, 0.5]),
         dict(MQ, d=535, rho12=0.3, alpha=[0.5, 0.5, 0.5])], "equivalence_report", 3),
    "mc-check": (["mc-check", "--config", "{a}", "--thetas", "0,1", "--n-samples", "50",
                  "--l-max", "5"], [MQ], "check_report", 0),
    # the power-law tail bound scales like 1 / nu^2: beyond float64 here
    "mc-check-infinite-tail": (
        ["mc-check", "--config", "{a}", "--thetas", "0,1", "--n-samples", "10"],
        [dict(LM, nu=1e-300, L_max=5, K_max=4)], "check_report", 3),
    "schoenberg-export": (["schoenberg-export", "--config", "{a}"],
                          [dict(LM, L_max=5, K_max=4)], "sequence", 0),
}


@pytest.mark.parametrize("name", STRICT_JSON_CASES)
def test_stdout_is_strict_json(capsys, tmp_json, name):
    # RFC 8259 has no Infinity or NaN: every non-finite report value is null
    argv, models, schema, expected = STRICT_JSON_CASES[name]
    paths = {key: tmp_json(f"{key}.json", model) for key, model in zip("ab", models)}
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == expected and "Traceback" not in err
    if schema is None:
        assert out == ""
    else:
        validate_schema(f"{schema}.schema.json",
                        json.loads(out, parse_constant=reject_constant))


class TestExportAndUsage:
    def test_sequence_export_schema(self, capsys, tmp_json):
        code, out, _ = run(capsys, ["schoenberg-export", "--config",
                                    tmp_json("m.json", dict(LM, L_max=5, K_max=4))])
        assert code == 0
        obj = json.loads(out)
        validate_schema("sequence.schema.json", obj)
        assert obj["L_max"] == 5 and len(obj["coeffs"]) == 6

    def test_unknown_command_usage(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, ["validate", "--config", "/nonexistent.json"])
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize("command", [
        ["sample", "--grid", "{grid}", "--n-samples", "1", "--out", "{out}"],
        ["mc-check", "--thetas", "0,1", "--n-samples", "10"],
    ])
    def test_synthesis_on_d3_is_invalid_model(self, capsys, tmp_json, tmp_path,
                                              command):
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 4})
        argv = [arg.format(grid=grid, out=tmp_path / "out") for arg in command]
        code, out, err = run(capsys, argv[:1] + ["--config", tmp_json("m.json", MQ_D3),
                                                 "--l-max", "5"] + argv[1:])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.count("restricted to d in {1, 2}; got d = 3") == 1
        assert not (tmp_path / "out").exists()
