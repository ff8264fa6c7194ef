import csv
import json
import math

import numpy as np
import pytest

from spherefield import cli
from conftest import validate_schema

MQ = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
      "rho12": 0.4, "alpha": [0.5, 0.5, 0.45]}
MQ_D3 = {"model": "multiquadratic", "d": 3, "sigma": [1, 1.2],
         "rho12": 0.4, "alpha": [0.5, 0.6, 0.5]}
MQ_BAD = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
          "rho12": 0.4, "alpha": [0.6, 0.4, 0.5]}
LM = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0}
LM_ALPHA = {"model": "legendre_matern", "sigma": 1.0, "alpha": 2.0, "nu": 1.0}
LM_NU = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.2}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_model_exit_zero(self, capsys, tmp_json):
        code, out, _ = run(capsys, ["validate", "--config", tmp_json("m.json", MQ),
                                    "--l-max", "50"])
        assert code == 0
        report = json.loads(out)
        validate_schema("validity_report.schema.json", report)
        assert report["passed"]

    def test_violated_inequality_named(self, capsys, tmp_json):
        code, out, err = run(capsys, ["validate", "--config",
                                      tmp_json("m.json", MQ_BAD)])
        assert code == 2
        assert "alpha_12" in json.loads(out)["violated_condition"]

    def test_missing_field_usage_error(self, capsys, tmp_json):
        blob = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0}
        code, _, err = run(capsys, ["validate", "--config", tmp_json("m.json", blob)])
        assert code == 1
        assert "nu" in err

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

    def test_empty_theta_list_usage_error(self, capsys, tmp_json):
        code, _, err = run(capsys, ["kernel", "--config", tmp_json("m.json", MQ),
                                    "--thetas", " "])
        assert code == 1

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

    def test_basis_built_once_per_run(self, capsys, tmp_json, tmp_path,
                                      basis_calls):
        cfg = tmp_json("m.json", MQ)
        grid = tmp_json("g.json", {"kind": "uniform", "d": 2, "n": 4, "seed": 7})
        code, _, _ = run(capsys, ["sample", "--config", cfg, "--grid", grid,
                                  "--n-samples", "3", "--l-max", "6",
                                  "--out", str(tmp_path / "run")])
        assert code == 0
        assert basis_calls == [6]

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
        assert code in (0, 4)  # equivalent or inconclusive, never orthogonal
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

    def test_underflowed_reference_invalid_model(self, capsys, tmp_json):
        # the diagonal of the default MQ model underflows to 0 at degree 1075
        code, out, err = run(capsys, ["equiv", tmp_json("a.json", MQ),
                                      tmp_json("b.json", MQ), "--l-max", "1200"])
        assert code == 2
        assert out == ""
        assert "strictly positive" in err and "degree 1075" in err

    def test_verdict_disagreement_is_loud(self, capsys, tmp_json, monkeypatch):
        # a numeric verdict contradicting the closed form signals an
        # undersized truncation or a bug; the command must not pick a side
        from spherefield import equivalence as eq

        def fake_numeric(series, policy):
            return eq.EquivalenceVerdict(eq.ORTHOGONAL, eq.NUMERIC, "forced")

        monkeypatch.setattr(cli, "classify_numeric", fake_numeric)
        code, _, err = run(capsys, ["equiv", tmp_json("a.json", LM),
                                    tmp_json("b.json", LM_ALPHA),
                                    "--l-max", "64", "--k-max", "32"])
        assert code == 2
        assert "disagree" in err


class TestMcCheck:
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

    def test_zero_samples_usage_error(self, capsys, tmp_json):
        code, _, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                  "--thetas", "0", "--n-samples", "0"])
        assert code == 1

    def test_missing_pair_source_usage_error(self, capsys, tmp_json):
        code, _, err = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--n-samples", "100"])
        assert code == 1

    def test_pairs_file(self, capsys, tmp_json):
        pairs = {"pairs": [[[0, 0, 1], [0, 1, 0]]]}
        code, out, _ = run(capsys, ["mc-check", "--config", tmp_json("m.json", MQ),
                                    "--pairs", tmp_json("p.json", pairs),
                                    "--n-samples", "500", "--seed", "1",
                                    "--l-max", "6"])
        assert code == 0


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
