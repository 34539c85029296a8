import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

from sgdol.cli import cli_main
from sgdol.diagnostics import run_verification

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parse_libsvm_fixture(tiny3_path, capsys):
    code = cli_main(["parse-libsvm", tiny3_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 rows, 3 features" in out
    assert "bias" in out


def test_parse_libsvm_no_bias(tiny3_path, capsys):
    code = cli_main(["parse-libsvm", tiny3_path, "--no-bias"])
    assert code == 0
    assert "3 rows, 3 features" in capsys.readouterr().out


def test_parse_libsvm_missing_file(capsys):
    code = cli_main(["parse-libsvm", "/nope/missing.libsvm"])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_parse_libsvm_malformed(tmp_path, capsys):
    path = tmp_path / "bad.libsvm"
    path.write_text("1 2:a\n")
    code = cli_main(["parse-libsvm", str(path)])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


def test_run_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "results"
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
oracle = rosenbrock
sigma = 0.2
t = 100
repetitions = 2
seed = 11
report_every = 10
output_dir = {out_dir}

[optimizer.sgdol]
kind = sgdol_global
m = 1002
""")
    code = cli_main(["run", str(config)])
    assert code == 0
    assert (out_dir / "sgdol.csv").exists()
    assert "sgdol" in capsys.readouterr().out


def test_run_invalid_config_names_field(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text("""
[experiment]
oracle = rosenbrock
t = 100
repetitions = 0
seed = 11

[optimizer.sgd]
kind = sgd
lr = 0.001
""")
    code = cli_main(["run", str(config)])
    assert code == 1
    assert "repetitions" in capsys.readouterr().err


def test_run_rejects_a_field_the_kind_does_not_take(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text("""
[experiment]
oracle = rosenbrock
t = 100
repetitions = 1
seed = 11

[optimizer.sgdol]
kind = sgdol_global
m = 1002
lr = 0.1
""")
    code = cli_main(["run", str(config)])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: optimizer.sgdol.lr: not taken by kind 'sgdol_global'\n")


def test_run_rejects_an_oracle_key_the_kind_does_not_take(tmp_path, synthetic500_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
oracle = sigmoid
dataset = {synthetic500_path}
batch_size = 50
sigma = 5.0
t = 10
repetitions = 1
seed = 11

[optimizer.sgd]
kind = sgd
lr = 0.1
""")
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "config error: sigma: not taken by oracle 'sigmoid'\n"


def test_run_rejects_a_batch_larger_than_the_dataset(tmp_path, synthetic500_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
oracle = sigmoid
dataset = {synthetic500_path}
batch_size = 1000
t = 10
repetitions = 1
seed = 11

[optimizer.sgd]
kind = sgd
lr = 0.1
""")
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "config error: batch_size: must be <= 500 (the dataset's rows), got 1000\n")


@pytest.mark.parametrize("diag", ["1.0 -2.0", "", "1.0 nan", "inf 1.0", "0.0"])
def test_run_invalid_diag_names_field(tmp_path, capsys, diag):
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
oracle = quadratic
diag = {diag}
t = 10
repetitions = 1
seed = 11

[optimizer.sgd]
kind = sgd
lr = 0.001
""")
    code = cli_main(["run", str(config)])
    assert code == 1
    assert "config error: diag:" in capsys.readouterr().err


def test_run_missing_dataset_is_io_error(tmp_path, capsys):
    missing = tmp_path / "not-here.libsvm"
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
oracle = sigmoid
dataset = {missing}
batch_size = 10
t = 10
repetitions = 1
seed = 11

[optimizer.sgd]
kind = sgd
lr = 0.1
""")
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ") and str(missing) in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("data, balance, message", [
    (b"+1 1:0.5\n-1 2:x\n", "false", "line 2: bad feature token '2:x'"),
    (b"+1 1:0.5\n-1 2:0.\xf6\n", "false", "line 2: not UTF-8, can't decode byte 0xf6"),
    (b"+1 1:0.5\n+1 2:1.0\n", "true", "balance_subsample requires both label classes present"),
], ids=["malformed", "not-utf8", "one-class-balanced"])
def test_run_bad_dataset_is_one_config_error(tmp_path, capsys, data, balance, message):
    dataset = tmp_path / "data.libsvm"
    dataset.write_bytes(data)
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[experiment]
oracle = sigmoid
dataset = {dataset}
batch_size = 1
balance = {balance}
t = 10
repetitions = 1
seed = 11

[optimizer.sgd]
kind = sgd
lr = 0.1
""")
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"config error: dataset: {dataset}: {message}\n"


def test_parse_libsvm_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.libsvm"
    path.write_bytes(b"+1 1:0.5\n-1 2:0.\xf6\n")
    code = cli_main(["parse-libsvm", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "parse error: line 2: not UTF-8, can't decode byte 0xf6\n"


@pytest.mark.parametrize("content, message", [
    (b"[experiment]\noracle = rosenbrock\noracle = quadratic\n",
     "option 'oracle' in section 'experiment' already exists"),
    (b"[experiment]\noracle = rosenbrock\n[experiment]\nt = 5\n",
     "section 'experiment' already exists"),
    (b"oracle = rosenbrock\n[experiment]\n", "no section headers"),
    (b"[experiment]\noracle = rosenbr\xf6ck\n", "can't decode byte 0xf6"),
], ids=["duplicate-key", "duplicate-section", "no-section-header", "not-utf8"])
def test_run_malformed_config_is_one_config_error(tmp_path, capsys, content, message):
    config = tmp_path / "exp.ini"
    config.write_bytes(content)
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {config}: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_run_missing_config_file(capsys):
    code = cli_main(["run", "/nope/missing.ini"])
    assert code == 2


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["run", "--bogus"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_verify_subcommand(capsys):
    code = cli_main(["verify", "--samples", "5000", "--seed", "4242"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_json_prints_one_object_with_every_check(capsys):
    code = cli_main(["verify", "--samples", "200", "--seed", "4242", "--json"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 1
    report = json.loads(lines[0])
    expected = run_verification(seed=4242, mc_samples=200)
    assert report == {"seed": 4242, "samples": 200, "passed": len(expected),
                      "total": len(expected),
                      "checks": [dataclasses.asdict(r) for r in expected]}


def test_verify_text_output_is_unchanged_by_the_json_option(capsys):
    assert cli_main(["verify", "--samples", "200", "--seed", "4242"]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = run_verification(seed=4242, mc_samples=200)
    assert lines == [f"PASS  {r.name}: {r.detail}" for r in results] + ["8/8 checks passed"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_fewer_than_one_sample(capsys, samples):
    code = cli_main(["verify", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --samples: must be an integer >= 1, got {samples}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_rejects_a_seed_outside_64_bits(capsys, seed):
    code = cli_main(["verify", "--seed", seed, "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --seed: must be a 64-bit unsigned integer, got {seed}\n"


@pytest.mark.parametrize("args, err", [
    (["--samples", "0"], "error: --samples: must be an integer >= 1, got 0\n"),
    (["--seed", "-1"], "error: --seed: must be a 64-bit unsigned integer, got -1\n"),
], ids=["samples", "seed"])
def test_verify_json_rejects_bad_arguments_as_text_mode_does(capsys, args, err):
    code = cli_main(["verify", "--json", *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("n_features", ["0", "-3"])
def test_parse_libsvm_rejects_fewer_than_one_feature(tiny3_path, capsys, n_features):
    code = cli_main(["parse-libsvm", tiny3_path, "--n-features", n_features])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --n-features: must be an integer >= 1, got {n_features}\n"


def test_run_infinite_noise_level_is_one_config_error(tmp_path, capsys):
    # The run would be on the lane engine, where every pair would be infinite.
    config = tmp_path / "exp.ini"
    config.write_text("""
[experiment]
oracle = rosenbrock
sigma = inf
t = 50
repetitions = 1
seed = 11

[optimizer.momentum]
kind = sgdol_momentum
m = 1
""")
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "config error: sigma: must be finite, got inf\n"


def test_run_diverging_engine_run_prints_nan(tmp_path, capsys):
    # M = 1 is far below Rosenbrock's curvature; the momentum run on the
    # lane engine overflows within 200 steps, and the run goes on to NaN.
    config = tmp_path / "exp.ini"
    config.write_text("""
[experiment]
oracle = rosenbrock
sigma = 5
t = 200
repetitions = 1
seed = 1

[optimizer.momentum]
kind = sgdol_momentum
m = 1
""")
    code = cli_main(["run", str(config)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "momentum: 200 recorded points, final grad_sq_norm nan\n"
    assert captured.err == ""


def test_diverging_engine_run_warns_nothing(tmp_path, capsys):
    # The same run with every warning an error: the engine overflows as
    # silently as the kernels.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        test_run_diverging_engine_run_prints_nan(tmp_path, capsys)


@pytest.mark.parametrize("args, expected", [
    (["--help"], "usage: sgdol"),
    (["verify", "--samples", "200"], "8/8 checks passed"),
], ids=["help", "verify"])
def test_python_dash_m_sgdol_runs_the_cli(args, expected):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "sgdol", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
