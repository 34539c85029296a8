import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgdol import (
    ConfigError,
    ExperimentSpec,
    OptimizerConfig,
    OracleSpec,
    parse_config,
    run_experiment,
)
from sgdol.harness import OptimizerSeries, ResultTable, read_csv_series, write_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec(tmp=None, **overrides):
    base = dict(
        oracle=OracleSpec(kind="rosenbrock", sigma=0.5),
        optimizers=[
            ("sgdol", OptimizerConfig(kind="sgdol_global", M=1002.0, alpha=10.0)),
            ("sgd", OptimizerConfig(kind="sgd", lr=1.0 / 1002.0)),
        ],
        T=400,
        repetitions=3,
        seed=99,
        report_every=10,
        output_dir=str(tmp) if tmp is not None else None,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_single_rep_average_equals_raw():
    table = run_experiment(_spec(repetitions=1, keep_raw=True))
    s = table.series["sgdol"]
    raw = s.raw[0].trajectory
    assert np.array_equal(s.grad_sq_norm, raw.true_grad_sq_norm)
    assert np.array_equal(s.f_value, raw.f_value)
    assert np.array_equal(s.stepsize_mean, raw.stepsize)


def test_averaging_is_arithmetic_mean():
    table = run_experiment(_spec(keep_raw=True))
    s = table.series["sgdol"]
    stacked = np.stack([r.trajectory.true_grad_sq_norm for r in s.raw])
    assert np.allclose(s.grad_sq_norm, stacked.mean(axis=0), rtol=1e-12)
    stacked_f = np.stack([r.trajectory.f_value for r in s.raw])
    assert np.allclose(s.f_value, stacked_f.mean(axis=0), rtol=1e-12)


def test_oracle_stream_shared_across_optimizers():
    table = run_experiment(_spec(keep_raw=True, repetitions=2))
    a = table.series["sgdol"].raw
    b = table.series["sgd"].raw
    for ra, rb in zip(a, b):
        # same oracle stream per repetition: both start from the same x1 and
        # see the same first pair, so the recorded f at t=1 agrees
        assert ra.trajectory.f_value[0] == rb.trajectory.f_value[0]
        assert ra.trajectory.true_grad_sq_norm[0] == rb.trajectory.true_grad_sq_norm[0]


def test_stream_isolation_between_optimizer_configs():
    t1 = run_experiment(_spec(keep_raw=True))
    spec2 = _spec(keep_raw=True)
    spec2.optimizers[1] = ("sgd", OptimizerConfig(kind="sgd", lr=5e-4))
    t2 = run_experiment(spec2)
    for r1, r2 in zip(t1.series["sgdol"].raw, t2.series["sgdol"].raw):
        assert np.array_equal(r1.trajectory.f_value, r2.trajectory.f_value)
        assert np.array_equal(r1.x_final, r2.x_final)


def test_series_length_matches_cadence():
    table = run_experiment(_spec(T=103, report_every=10))
    assert len(table.series["sgd"].t) == 11  # ceil(103/10)


def test_noiseless_averaged_series_identical_for_sgdol_and_sgd():
    spec = _spec(oracle=OracleSpec(kind="rosenbrock", sigma=0.0), T=300)
    table = run_experiment(spec)
    a, b = table.series["sgdol"], table.series["sgd"]
    assert np.array_equal(a.grad_sq_norm, b.grad_sq_norm)
    assert np.array_equal(a.f_value, b.f_value)
    assert np.array_equal(a.stepsize_mean, b.stepsize_mean)


def test_experiment_is_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(_spec(tmp=d1))
    run_experiment(_spec(tmp=d2))
    for name in ("sgdol.csv", "sgd.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_csv_round_trip_exact(tmp_path):
    table = run_experiment(_spec(tmp=tmp_path))
    back = read_csv_series(tmp_path / "sgdol.csv")
    s = table.series["sgdol"]
    assert np.array_equal(back["t"], s.t)
    assert np.array_equal(back["grad_sq_norm"], s.grad_sq_norm)
    assert np.array_equal(back["f_value"], s.f_value)
    assert np.array_equal(back["stepsize_mean"], s.stepsize_mean)
    assert np.array_equal(back["optimality_gap"], s.optimality_gap)


# Any float64 the writer may meet. NaN is only the canonical quiet NaN: the
# decimal text spells every NaN "nan", so a sign or payload cannot survive.
_CSV_FLOATS = (st.floats(allow_nan=False)
               | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))


@st.composite
def _csv_series(draw):
    n = draw(st.integers(0, 12))
    d = draw(st.integers(0, 3))  # 0: no per-coordinate columns

    def column(shape=n):
        return draw(arrays(np.float64, shape, elements=_CSV_FLOATS))

    def optional_column():
        return column() if draw(st.booleans()) else None

    return OptimizerSeries(
        name="s", kind="sgd", t=draw(arrays(np.int64, n)), grad_sq_norm=column(),
        f_value=column(), stepsize_mean=column(),
        stepsize_coords=column((n, d)) if d else None, optimality_gap=optional_column())


@settings(max_examples=150, deadline=None, database=None)
@given(series=_csv_series())
def test_csv_round_trip_is_bitwise_for_any_series(tmp_path_factory, series):
    out_dir = tmp_path_factory.mktemp("csv")
    write_csv(ResultTable(series={"s": series}), out_dir)
    back = read_csv_series(out_dir / "s.csv")
    expected = {
        "t": series.t,
        "grad_sq_norm": series.grad_sq_norm,
        "f_value": series.f_value,
        "stepsize_mean": series.stepsize_mean,
    }
    if series.stepsize_coords is not None:
        for j in range(series.stepsize_coords.shape[1]):
            expected[f"stepsize_{j + 1}"] = series.stepsize_coords[:, j]
    if series.optimality_gap is not None:
        expected["optimality_gap"] = series.optimality_gap
    assert list(back) == list(expected)
    for name, column in expected.items():
        want = np.ascontiguousarray(column)
        assert (back[name].dtype, back[name].shape, back[name].tobytes()) == (
            want.dtype, want.shape, want.tobytes()), name


def test_csv_bytes_are_those_of_csv_writer_with_repr(tmp_path):
    inf, nan = math.inf, math.nan
    write_csv(ResultTable(series={"s": OptimizerSeries(
        name="s", kind="sgdol_coord", t=np.array([1, 2, 10**6]),
        grad_sq_norm=np.array([nan, 0.1, 1e16]), f_value=np.array([inf, -inf, -0.0]),
        stepsize_mean=np.array([5e-324, 1e-05, 0.1]),
        stepsize_coords=np.array([[0.1, -0.0], [1e-05, nan], [inf, 5e-324]]),
        optimality_gap=np.array([1e16, -inf, 0.0]))}), tmp_path)
    # What csv.writer wrote for these rows as [str(t), *map(repr, row)].
    assert (tmp_path / "s.csv").read_bytes() == (
        b"t,grad_sq_norm,f_value,stepsize_mean,stepsize_1,stepsize_2,optimality_gap\r\n"
        b"1,nan,inf,5e-324,0.1,-0.0,1e+16\r\n"
        b"2,0.1,-inf,1e-05,1e-05,nan,-inf\r\n"
        b"1000000,1e+16,-0.0,0.1,inf,5e-324,0.0\r\n")


def test_read_csv_series_reads_empty_cells_as_nan(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,grad_sq_norm,f_value,stepsize_mean\n1,,0.5,0.25\n2,1.5,,0.125\n")
    back = read_csv_series(path)
    assert back["t"].tolist() == [1, 2]
    assert np.isnan(back["grad_sq_norm"][0]) and back["grad_sq_norm"][1] == 1.5
    assert back["f_value"][0] == 0.5 and np.isnan(back["f_value"][1])
    assert back["stepsize_mean"].tolist() == [0.25, 0.125]


def test_read_csv_series_refuses_a_short_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,f_value\n1,0.5\n2\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}.*line 3"):
        read_csv_series(path)


def test_read_csv_series_refuses_an_empty_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}.*line 1"):
        read_csv_series(path)


def test_csv_header_prefix_contract(tmp_path):
    run_experiment(_spec(tmp=tmp_path))
    header = (tmp_path / "sgd.csv").read_text().splitlines()[0]
    assert header.startswith("t,grad_sq_norm,f_value,stepsize_mean")


def test_csv_per_coordinate_columns(tmp_path):
    spec = _spec(tmp=tmp_path)
    spec.optimizers = [("coord", OptimizerConfig(kind="sgdol_coord", M=1002.0))]
    run_experiment(spec)
    header = (tmp_path / "coord.csv").read_text().splitlines()[0].split(",")
    assert "stepsize_1" in header and "stepsize_2" in header


def test_csv_empty_series_writes_header_only(tmp_path):
    table = ResultTable(series={"empty": OptimizerSeries(
        name="empty", kind="sgd", t=np.array([], dtype=np.int64),
        grad_sq_norm=np.array([]), f_value=np.array([]),
        stepsize_mean=np.array([]))})
    write_csv(table, tmp_path)
    lines = (tmp_path / "empty.csv").read_text().splitlines()
    assert lines == ["t,grad_sq_norm,f_value,stepsize_mean"]


def test_validation_reports_offending_fields():
    with pytest.raises(ConfigError) as info:
        run_experiment(_spec(repetitions=0))
    assert any("repetitions" in p for p in info.value.problems)
    with pytest.raises(ConfigError) as info:
        run_experiment(_spec(optimizers=[("x", OptimizerConfig(kind="sgdol_global"))]))
    assert any("optimizer.x.M" in p for p in info.value.problems)


def test_validation_requires_integer_counts():
    problems = _spec(T=400.0, repetitions=3.0, report_every=2.5).validate()
    for name in ("T", "repetitions", "report_every"):
        assert any(p.startswith(f"{name}: must be an integer") for p in problems), problems
    with pytest.raises(ConfigError):
        run_experiment(_spec(report_every=2.5))
    # A bool is not a count, as field_problems already holds for T.
    problems = _spec(repetitions=True, report_every=True).validate()
    for name in ("repetitions", "report_every"):
        assert any(p.startswith(f"{name}: must be an integer") for p in problems), problems


@pytest.mark.parametrize("name, value", [
    ("repetitions", None), ("repetitions", "3"), ("repetitions", True),
    ("report_every", "2"), ("report_every", True),
])
def test_a_non_integer_count_is_reported_once(name, value):
    # None and the strings raised TypeError from the range check < 1.
    problems = [p for p in _spec(**{name: value}).validate() if p.startswith(f"{name}:")]
    assert problems == [f"{name}: must be an integer >= 1, got {value!r}"]
    with pytest.raises(ConfigError):
        run_experiment(_spec(**{name: value}))


@pytest.mark.parametrize("seed", [1.5, 1.0, True, math.nan, None])
def test_a_non_integer_seed_is_reported_once(seed):
    # seed=1.5 and seed=True passed validation and ran as seed 1.
    problems = [p for p in _spec(seed=seed).validate() if p.startswith("seed:")]
    assert problems == [f"seed: must be a 64-bit unsigned integer, got {seed!r}"]
    with pytest.raises(ConfigError):
        run_experiment(_spec(seed=seed))


@pytest.mark.parametrize("batch_size", [2.5, 2.0, True])
def test_a_non_integer_batch_size_is_reported(synthetic500_path, batch_size):
    # Both passed validation, and run_experiment died inside numpy with a TypeError.
    oracle = OracleSpec(kind="sigmoid", dataset=synthetic500_path, batch_size=batch_size)
    assert oracle.validate() == [f"batch_size: must be an integer >= 1, got {batch_size!r}"]
    with pytest.raises(ConfigError, match="batch_size: must be an integer"):
        run_experiment(_spec(oracle=oracle))


@pytest.mark.parametrize("T", [10.5, True])
def test_a_non_integer_horizon_is_reported_once(T):
    problems = [p for p in _spec(T=T).validate() if p.startswith("T:")]
    assert problems == [f"T: must be an integer >= 1, got {T}"]


def test_missing_dataset_is_io_error():
    spec = _spec()
    spec.oracle = OracleSpec(kind="sigmoid", dataset="/definitely/not/here.libsvm",
                             batch_size=10)
    with pytest.raises(OSError):
        run_experiment(spec)


def test_batch_size_above_the_row_count_is_a_config_error(synthetic500_path):
    spec = _spec(oracle=OracleSpec(kind="sigmoid", dataset=synthetic500_path, batch_size=1000))
    with pytest.raises(ConfigError) as info:
        run_experiment(spec)
    assert info.value.problems == ["batch_size: must be <= 500 (the dataset's rows), got 1000"]


def test_sgd_gl_constants_filled_from_oracle():
    spec = _spec()
    spec.optimizers = [("gl", OptimizerConfig(kind="sgd_gl"))]
    table = run_experiment(spec)
    s = table.series["gl"]
    # rosenbrock at zero start: f_gap = 1, sigma_total = sqrt(2)*0.5, M = 1002
    expected = min(1.0 / 1002.0, 1.0 / (np.sqrt(2 * 0.5**2) * np.sqrt(400)))
    assert s.stepsize_mean[0] == pytest.approx(expected)


def test_rerun_at_new_T_refills_sgd_gl_constants():
    # sigma is set so high that the tuned stepsize depends on T at both horizons
    cfg = OptimizerConfig(kind="sgd_gl", sigma=100.0)
    spec = _spec(optimizers=[("gl", cfg)], T=100, repetitions=1)
    run_experiment(spec)
    rerun = run_experiment(replace(spec, T=1000))
    fresh = run_experiment(_spec(optimizers=[("gl", OptimizerConfig(kind="sgd_gl", sigma=100.0))],
                                 T=1000, repetitions=1))
    assert cfg.T is None and cfg.M is None and cfg.f_gap is None
    a, b = rerun.series["gl"], fresh.series["gl"]
    assert a.stepsize_mean[0] < 1.0 / 1002.0
    assert np.array_equal(a.stepsize_mean, b.stepsize_mean)
    assert np.array_equal(a.f_value, b.f_value)


def test_sigmoid_experiment_runs(synthetic500_path):
    spec = ExperimentSpec(
        oracle=OracleSpec(kind="sigmoid", dataset=synthetic500_path, batch_size=50),
        optimizers=[("sgdol", OptimizerConfig(kind="sgdol_global", M=8.0))],
        T=200, repetitions=2, seed=7, report_every=20)
    table = run_experiment(spec)
    s = table.series["sgdol"]
    assert len(s.t) == 10
    assert s.optimality_gap is None  # no known optimum for this objective
    assert s.f_value is not None


@pytest.mark.parametrize("oracle,key", [
    (OracleSpec(kind="sigmoid", dataset="d.libsvm", batch_size=5, sigma=5.0), "sigma"),
    (OracleSpec(kind="sigmoid", dataset="d.libsvm", batch_size=5, diag=np.ones(2)), "diag"),
    (OracleSpec(kind="rosenbrock", dataset="d.libsvm"), "dataset"),
    (OracleSpec(kind="rosenbrock", batch_size=5), "batch_size"),
    (OracleSpec(kind="rosenbrock", diag=np.ones(2)), "diag"),
    (OracleSpec(kind="quadratic", diag=np.ones(2), append_bias=True), "append_bias"),
    (OracleSpec(kind="quadratic", diag=np.ones(2), balance=False), "balance"),
])
def test_oracle_rejects_a_key_its_kind_does_not_take(oracle, key):
    assert oracle.validate() == [f"{key}: not taken by oracle {oracle.kind!r}"]
    with pytest.raises(ConfigError, match=f"{key}: not taken by oracle"):
        run_experiment(_spec(oracle=oracle))


@pytest.mark.parametrize("spec, problem", [
    (OptimizerConfig(kind="sgd", lr="0.1"), "lr: must be a real number, got '0.1'"),
    (OptimizerConfig(kind="sgd", lr=np.array([0.1, 0.2])),
     "lr: must be a real number, got [0.1, 0.2]"),
    (OracleSpec(kind="rosenbrock", sigma="abc"), "sigma: must be real numbers, got 'abc'"),
    (OracleSpec(kind="quadratic", diag=["a"]), "diag: must be real numbers, got ['a']"),
], ids=["lr_str", "lr_array", "sigma_str", "diag_str"])
def test_a_value_that_is_not_a_real_number_is_reported(spec, problem):
    # validate used to raise TypeError, numpy's ambiguous-truth ValueError or
    # a float conversion error on these; it reports them, and building raises
    # the same problem.
    assert spec.validate() == [problem]
    with pytest.raises(ValueError, match=re.escape(problem)):
        spec.build(np.zeros(2)) if isinstance(spec, OptimizerConfig) else spec.build(0)


def test_unset_oracle_keys_take_their_defaults(synthetic500_path):
    assert np.array_equal(OracleSpec(kind="rosenbrock").build(0).sigma, np.zeros(2))
    oracle = OracleSpec(kind="sigmoid", dataset=synthetic500_path, batch_size=5).build(0)
    assert oracle.dim == 21 and len(oracle.data) == 500  # bias appended, not balanced


@pytest.mark.parametrize("sigma", [[0.5, 1.0], np.array([0.5, 1.0])], ids=["list", "ndarray"])
def test_a_per_coordinate_noise_level_runs(sigma):
    # validate raised TypeError on the list and numpy's "truth value of an
    # array ... is ambiguous" ValueError on the array.
    oracle = OracleSpec(kind="quadratic", diag=[1, 2], sigma=sigma)
    assert oracle.validate() == []
    assert np.array_equal(oracle.build(0).sigma, [0.5, 1.0])
    table = run_experiment(_spec(oracle=oracle, T=50, repetitions=2, optimizers=[
        ("sgdol", OptimizerConfig(kind="sgdol_global", M=2.0)),
        ("gl", OptimizerConfig(kind="sgd_gl"))]))
    assert all(np.isfinite(s.f_value).all() for s in table.series.values())


def test_a_negative_per_coordinate_noise_level_is_reported():
    oracle = OracleSpec(kind="quadratic", diag=[1, 2], sigma=[-1.0, 1.0])
    assert oracle.validate() == ["sigma: must be >= 0, got [-1.0, 1.0]"]
    with pytest.raises(ConfigError, match=r"sigma: must be >= 0, got \[-1.0, 1.0\]"):
        run_experiment(_spec(oracle=oracle))


@pytest.mark.parametrize("oracle, dim, shape", [
    (OracleSpec(kind="quadratic", diag=[1, 2], sigma=[1.0, 2.0, 3.0]), 2, (3,)),
    (OracleSpec(kind="quadratic", diag=[1, 2, 3], sigma=np.ones((1, 3))), 3, (1, 3)),
    (OracleSpec(kind="rosenbrock", sigma=[]), 2, (0,)),
], ids=["quadratic", "quadratic-2d", "rosenbrock-empty"])
def test_a_noise_level_per_coordinate_needs_one_per_coordinate(oracle, dim, shape):
    # These validated clean; building the oracle then raised a plain ValueError.
    problem = f"sigma: must be a scalar or {dim} levels, one per coordinate, got shape {shape}"
    assert oracle.validate() == [problem]
    with pytest.raises(ConfigError) as info:
        run_experiment(_spec(oracle=oracle))
    assert info.value.problems == [problem]


def test_a_malformed_diag_is_reported_without_a_sigma_length_check():
    # The length check runs once diag is well-formed: len(5.0) would raise.
    oracle = OracleSpec(kind="quadratic", diag=5.0, sigma=[1.0])
    assert oracle.validate() == ["diag: must be 1-D with one or more entries, each > 0, "
                                 "got 5.0"]


@pytest.mark.parametrize("name", ["", "a/b", "../escaped", ".../escaped", "a\0b"])
def test_an_optimizer_name_must_be_a_file_name(name):
    spec = _spec(optimizers=[(name, OptimizerConfig(kind="sgd", lr=1e-3))])
    assert spec.validate() == [f"optimizers: name {name!r} must be a file name: non-empty, "
                               "with no path separator or NUL"]


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

GOOD_CONFIG = """
[experiment]
oracle = rosenbrock
sigma = 0.2
t = 500
repetitions = 2
seed = 1234
report_every = 25

[optimizer.sgdol]
kind = sgdol_global
m = 1002
alpha = 10

[optimizer.sgd]
kind = sgd
lr = 0.000998003992015968
"""


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG)
    spec = parse_config(path)
    assert spec.T == 500
    assert spec.repetitions == 2
    assert spec.seed == 1234
    assert spec.oracle.kind == "rosenbrock"
    assert spec.oracle.sigma == 0.2
    names = [n for n, _ in spec.optimizers]
    assert names == ["sgdol", "sgd"]
    table = run_experiment(spec)
    assert set(table.series) == {"sgdol", "sgd"}


def test_parse_config_collects_problems(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("""
[experiment]
oracle = rosenbrock
t = 100
repetitions = 0
seed = nope
bogus = 1

[optimizer.a]
kind = sgdol_global
""")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    text = " | ".join(info.value.problems)
    assert "repetitions" in text
    assert "seed" in text
    assert "bogus" in text
    assert "optimizer.a.M" in text


def test_parse_config_rejects_data_keys_on_an_analytic_oracle(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG.replace("sigma = 0.2", "dataset = d.libsvm\nbatch_size = 5\ndiag = 1"))
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.problems == [f"{key}: not taken by oracle 'rosenbrock'"
                                   for key in ("diag", "dataset", "batch_size")]


@pytest.mark.parametrize("path", ["configs/rosenbrock_noisy.ini",
                                  "configs/classification_batch50.ini",
                                  "perfbench/quad_d100_dense.ini"])
def test_shipped_configs_parse(path):
    # The benchmark builds its inputs from these files.
    spec = parse_config(os.path.join(ROOT, path))
    assert spec.validate() == []


@pytest.mark.parametrize("name", ["a/b", ".../escaped", ""])
def test_a_config_with_a_path_as_optimizer_name_writes_nothing(tmp_path, name):
    # '.../escaped' wrote escaped.csv beside output_dir, and 'a/b' ran every
    # step before write_csv failed; each is now refused as the file is parsed.
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG.replace("[optimizer.sgd]", f"[optimizer.{name}]").replace(
        "report_every = 25", f"report_every = 25\noutput_dir = {tmp_path / 'out'}"))
    with pytest.raises(ConfigError, match="must be a file name"):
        parse_config(path)
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]


def test_parse_config_missing_file():
    with pytest.raises(OSError):
        parse_config("/no/such/config.ini")
