"""Golden bytes: `sample` outputs and the stdout of the algebra commands
(`validate`, `schoenberg-export`, `kernel`, `equiv`) pinned by sha256,
`mc-check` stdout verbatim (and by sha256 for a fourier model).

The randomness contract promises identical bytes for a fixed (seed, stream),
and the other tests only compare two runs of the same code.  These values
were recorded once and catch any change to the synthesis or writer
arithmetic, down to the last bit of a single value.  The draws come from
numpy's Philox and ziggurat code, so a numpy upgrade may legitimately change
them; the failure message names the numpy version they were taken with.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spherefield import cli
from spherefield.simulate import make_generator

GOLDEN_NUMPY = "2.4.6"

# sha256 of make_generator(0, 0).standard_normal(1024): the Philox/ziggurat
# normal stream that every sampled golden value is drawn from
GOLDEN_NORMALS = "4885f808e6841b488dbd9eee44281f15402cb7c06e52ff36782c275522fd1ac9"

LM = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0,
      "L_max": 16, "K_max": 4}
MQ = {"model": "multiquadratic", "d": 2, "sigma": [1, 1],
      "rho12": 0.4, "alpha": [0.5, 0.5, 0.45]}
MQ_B = dict(MQ, alpha=[0.5, 0.5, 0.40])
LM_200 = {"model": "legendre_matern", "sigma": 1.0, "alpha": 1.0, "nu": 1.0,
          "L_max": 200, "K_max": 32}
LM_B = dict(LM_200, alpha=2.0)
MQ_D1 = {"model": "multiquadratic", "d": 1, "sigma": [1, 1.2],
         "rho12": 0.3, "alpha": [0.5, 0.6, 0.5]}
LM_20 = dict(LM, L_max=20, K_max=6)
LM_64 = dict(LM, L_max=64, K_max=16)

# name -> (model, grid, format, fields, extra flags)
SAMPLE_RUNS = {
    "lm_csv": (LM, {"kind": "equiangular", "n_polar": 8, "n_azimuth": 16},
               "csv", 3, []),
    "mq_csv": (MQ, {"kind": "uniform", "d": 2, "n": 50, "seed": 3},
               "csv", 3, ["--l-max", "20"]),
    "mq_json": (MQ, {"kind": "uniform", "d": 2, "n": 50, "seed": 3},
                "json", 3, ["--l-max", "20"]),
    "mq_d1_csv": (MQ_D1, {"kind": "equispaced", "n": 40},
                  "csv", 3, ["--l-max", "12"]),
    # 2048 points: eight tiles of the S^2 recurrence, where every other
    # grid here fits in one
    "lm_wide_csv": (LM_64, {"kind": "equiangular", "n_polar": 32, "n_azimuth": 64},
                    "csv", 2, []),
}

GOLDEN_SAMPLE = {
    "lm_csv": {
        "manifest.json":
            "529063bf1db04fd6aef912cb4e30214d09dbf9ff2d78318f94a652897b5a6f62",
        "sample_0000.csv":
            "ce36bcc137ee324ea887424b506d3953209177dfce4d5ec4de850365fbb8c460",
        "sample_0001.csv":
            "319216cfe49f9acc0ddf0e7986d28ef1d2dc05bbc1023a873a8bb80208a1a4f6",
        "sample_0002.csv":
            "dd28d5cefb1deb9f98f2d71c4897968dade58342ca238e486567dd7e3bb1df45",
    },
    "mq_csv": {
        "manifest.json":
            "c25a45a10d452ca2fe8b3eb254e3da2ec1df80cdb1909de6f90cffa8b64c0b10",
        "sample_0000.csv":
            "cbe31612be55f1296ed53a3be93f34c45db27c183f030bfd6eb551fbeb8c9151",
        "sample_0001.csv":
            "cd8fad2a8e1253c85f0f9b5966b39ddd67f9097fba8e8eca760b3363494a0332",
        "sample_0002.csv":
            "99f42f223677650a2b239bdbf81617e13997d6656124245c296ad4cc86f64441",
    },
    "mq_d1_csv": {
        "manifest.json":
            "a3839dfaa7c7d3af4f4dbbb98b84ac5ff0ab0cfe11aadbe7601d243bdf18d865",
        "sample_0000.csv":
            "5e1eeafccbc3cdbe016c0c3dca4ee94e5a367bb7c679f352e036881286ce88db",
        "sample_0001.csv":
            "de4861187b3a3e77a639ddc16344ca4a9ec4b08080f418ffa9196654995a69c7",
        "sample_0002.csv":
            "a9f6a13dbf4e60558e85796bbbd30c535b52e5d803cd0dbafe101002f5a8021b",
    },
    "lm_wide_csv": {
        "manifest.json":
            "f635c6651d60dc5bc11035039dd7cc6f37c3f97df1930e86e841574c7f98f3b0",
        "sample_0000.csv":
            "2418852c756c07db81f16e7a834237ea5b7a54e0d5c8e520e7e7731972b00d3c",
        "sample_0001.csv":
            "9fe2d470d7f1a638fed078adef3472016eeee518d4f9ff1a63fba22f72580841",
    },
    "mq_json": {
        "manifest.json":
            "902fe38d36d57ca60371d532ca6643ca17cb9a82fbdfc77261a82f417c1e5b5b",
        "sample_0000.json":
            "b20d2eb8d5452d126001d4e5b5c45ad08ebf6aa4bcd3b864db311ce231da74d7",
        "sample_0001.json":
            "58a8060119c98e37f179dcf1a6b10ad40958490f34bfff6f735b86703547f77a",
        "sample_0002.json":
            "22aa52770babdd63a48443c10d2902ce2f9371fb00a7b38edbf6327d3cafca38",
    },
}

# name -> argv with "{name}" placeholders for the config files written by
# algebra_stdout
ALGEBRA_RUNS = {
    "validate_mq_300": ["validate", "--config", "{mq}", "--l-max", "300"],
    "validate_lm_200": ["validate", "--config", "{lm}", "--l-max", "200"],
    "export_mq_300": ["schoenberg-export", "--config", "{mq}", "--l-max", "300"],
    "kernel_mq_300": ["kernel", "--config", "{mq}", "--l-max", "300",
                      "--thetas", "0,0.5,1.7,3.1"],
    "equiv_mq_300": ["equiv", "{mq}", "{mq_b}", "--l-max", "300"],
    "equiv_lm_256": ["equiv", "{lm}", "{lm_b}", "--l-max", "256", "--k-max", "64"],
}

# name -> (exit code, sha256 of stdout)
GOLDEN_ALGEBRA = {
    "equiv_lm_256": (
        0, "65a3afa86d78670a24011a11f535b2139f50e583eb004d1d874b2cedd7aee714"),
    "equiv_mq_300": (
        0, "d7456985c5a19e06b65694abe893ddcd630c54af7dae21e4ed9445d793b12e7b"),
    "export_mq_300": (
        0, "c86fe553bb190cc27d04d7af0a646d64210ab2f8b959175ab0046eaac0fd99af"),
    "kernel_mq_300": (
        0, "7b4cbfe669f2566a6a3571e70917a4d60bcca7f9ecf7f100c3569ee3a25df4e0"),
    "validate_lm_200": (
        0, "002b8e357472240e5eae1d33065f62ca05fb2cb339b3b389710fd712b186bb9c"),
    "validate_mq_300": (
        0, "e4d54f1dd98974ee25b3d07feba1058c70d07d7ae3a67fe682e5cd8df7583be1"),
}

# taken at one BLAS thread, the count the ensemble runs at whatever the
# environment says
GOLDEN_MC_CHECK = '''\
{
 "passed": true,
 "z_max": 1.445866868354347,
 "z_threshold": 4.0,
 "n_samples": 300,
 "L_max": 30,
 "tail_bound": 9.313225746160693e-10,
 "pairs": [
  {
   "x": [
    0.0,
    0.0,
    1.0
   ],
   "y": [
    0.0,
    0.0,
    1.0
   ],
   "t": 1.0,
   "labels": [
    "R[0][0]",
    "R[0][1]",
    "R[1][0]",
    "R[1][1]"
   ],
   "empirical": [
    0.9685454107903989,
    0.376065229504214,
    0.376065229504214,
    0.9583439094496945
   ],
   "analytic": [
    0.9999999995343387,
    0.3999999999928936,
    0.3999999999928936,
    0.9999999995343387
   ],
   "se": [
    0.06919616367560608,
    0.05752956183479288,
    0.05752956183479288,
    0.0786663836476833
   ],
   "z": [
    -0.454571280734579,
    -0.416042982517629,
    -0.416042982517629,
    -0.529528473956626
   ],
   "z_max": 0.529528473956626
  },
  {
   "x": [
    0.0,
    0.0,
    1.0
   ],
   "y": [
    0.8414709848078965,
    0.0,
    0.5403023058681398
   ],
   "t": 0.5403023058681398,
   "labels": [
    "R[0][0]",
    "R[0][1]",
    "R[1][0]",
    "R[1][1]"
   ],
   "empirical": [
    0.6261810342131061,
    0.3459421682256298,
    0.23251901435761121,
    0.5594484074203924
   ],
   "analytic": [
    0.5935171972482367,
    0.2599543301668632,
    0.2599543301668632,
    0.5935171972482367
   ],
   "se": [
    0.06574739229273917,
    0.059471476897894476,
    0.05649967749436107,
    0.061022143689832935
   ],
   "z": [
    0.4968080987825984,
    1.445866868354347,
    -0.4855835825255845,
    -0.558302081306931
   ],
   "z_max": 1.445866868354347
  }
 ]
}
'''

# sha256 of the `mc-check` stdout of a fourier_diagonal model, whose entries
# pool the draws of each (cos, sin) coordinate pair
GOLDEN_MC_CHECK_LM = (
    "b99c24fe7ef8f64f33e5771d536cfef02839d9c9144a8d537570abf1e5a1c406")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mismatch(what: str) -> str:
    return (f"{what} differs from the golden value taken with numpy "
            f"{GOLDEN_NUMPY} (running numpy {np.__version__})")


def sample_digests(tmp_path, name) -> dict:
    """sha256 of every file one `sample` run writes, manifest included."""
    model, grid, fmt, n_fields, flags = SAMPLE_RUNS[name]
    run_dir = tmp_path / name
    run_dir.mkdir()
    (run_dir / "model.json").write_text(json.dumps(model))
    (run_dir / "grid.json").write_text(json.dumps(grid))
    out = run_dir / "out"
    code = cli.main(["sample", "--config", str(run_dir / "model.json"),
                     "--grid", str(run_dir / "grid.json"),
                     "--n-samples", str(n_fields),
                     "--seed", "42", "--stream", "5", "--format", fmt,
                     "--out", str(out)] + flags)
    assert code == 0
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def mc_check_argv(tmp_path) -> list:
    path = tmp_path / "mq.json"
    path.write_text(json.dumps(MQ))
    return ["mc-check", "--config", str(path), "--thetas", "0,1.0",
            "--n-samples", "300", "--l-max", "30", "--seed", "11"]


def mc_check_stdout(tmp_path, capsys) -> str:
    argv = mc_check_argv(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def algebra_stdout(tmp_path, capsys, name):
    """Exit code and sha256 of the stdout of one algebra command."""
    configs = {"mq": MQ, "mq_b": MQ_B, "lm": LM_200, "lm_b": LM_B}
    paths = {}
    for key, model in configs.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(model))
        paths[key] = str(path)
    capsys.readouterr()
    code = cli.main([arg.format(**paths) for arg in ALGEBRA_RUNS[name]])
    return code, _sha(capsys.readouterr().out.encode())


def test_normal_stream_matches_golden():
    # about 7 ms; fails before the sampled goldens below when numpy changes
    # its draws, and says why they fail too
    digest = _sha(make_generator(0, 0).standard_normal(1024).tobytes())
    assert digest == GOLDEN_NORMALS, (
        f"numpy's Philox/ziggurat normal stream changed: {_mismatch('the stream')}; "
        "GOLDEN_SAMPLE, GOLDEN_MC_CHECK, GOLDEN_MC_CHECK_LM and GOLDEN_ENSEMBLE "
        "(test_simulate.py) are drawn from it: re-record them with this numpy")


@pytest.mark.parametrize("name", sorted(SAMPLE_RUNS))
def test_sample_bytes_match_golden(tmp_path, name):
    assert sample_digests(tmp_path, name) == GOLDEN_SAMPLE[name], \
        _mismatch(f"`sample` output of run {name!r}")


def test_mc_check_stdout_matches_golden(tmp_path, capsys):
    assert mc_check_stdout(tmp_path, capsys) == GOLDEN_MC_CHECK, \
        _mismatch("`mc-check` stdout")


def test_mc_check_fourier_stdout_matches_golden(tmp_path, capsys):
    path = tmp_path / "lm.json"
    path.write_text(json.dumps(LM_20))
    capsys.readouterr()
    assert cli.main(["mc-check", "--config", str(path), "--thetas", "0,0.5,1,2,3",
                     "--n-samples", "300", "--seed", "5"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == GOLDEN_MC_CHECK_LM, \
        _mismatch("fourier `mc-check` stdout")


@pytest.mark.slow
def test_mc_check_stdout_independent_of_blas_threads(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    outs = [subprocess.run([sys.executable, "-m", "spherefield.cli",
                            *mc_check_argv(tmp_path)], capture_output=True,
                           text=True, check=True, timeout=300,
                           env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1] == GOLDEN_MC_CHECK, _mismatch("`mc-check` stdout")


@pytest.mark.parametrize("name", sorted(ALGEBRA_RUNS))
def test_algebra_stdout_matches_golden(tmp_path, capsys, name):
    assert algebra_stdout(tmp_path, capsys, name) == GOLDEN_ALGEBRA[name], \
        _mismatch(f"`{ALGEBRA_RUNS[name][0]}` stdout of run {name!r}")
