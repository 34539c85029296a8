"""Seeded experiment runner: configs, repetition averaging, and CSV output.

An experiment is (oracle x optimizer list x T x repetitions x seed). Each
repetition owns one oracle noise stream shared by every optimizer, so
optimizers see identical gradient pairs and their series are directly
comparable; the uniformly sampled output index gets its own stream per
(optimizer, repetition). All the (optimizer x repetition) runs go to
``optimizers._run_groups`` in one call, which picks each optimizer's step
loop and calls each loop once with all the runs it takes, drawing each
repetition's noise once for all of them. Averages over repetitions are
plain arithmetic means, taken in repetition order. CSV output uses
shortest round-trip decimals, so identical specs produce byte-identical
files.
"""

from __future__ import annotations

import configparser
import csv
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, get_args, get_type_hints

import numpy as np

from .core import RngStream, derive_stream_id, field_problems
from .optimizers import OptimizerConfig, RunResult, _run_groups
from .oracles import (
    QuadraticOracle,
    RosenbrockOracle,
    SigmoidLossOracle,
    StochasticOracle,
    balance_subsample,
    load_libsvm,
)

__all__ = [
    "OracleSpec",
    "ExperimentSpec",
    "OptimizerSeries",
    "ResultTable",
    "ConfigError",
    "run_experiment",
    "write_csv",
    "read_csv_series",
    "parse_config",
]

# Stream purposes folded into stream ids; oracle noise is keyed by repetition
# only, so all optimizers share each repetition's gradient pairs.
_PURPOSE_ORACLE = 1
_PURPOSE_OUTPUT = 2
_PURPOSE_BALANCE = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; ``problems`` lists offending fields."""

    def __init__(self, problems: List[str]):
        super().__init__("invalid experiment spec: " + "; ".join(problems))
        self.problems = problems


# Oracle kind -> the OracleSpec fields it takes. A field left unset (None)
# takes the default that ``OracleSpec.build`` applies.
_ORACLE_KEYS = {
    "rosenbrock": ("sigma",),
    "quadratic": ("sigma", "diag"),
    "sigmoid": ("dataset", "batch_size", "append_bias", "balance"),
}


@dataclass
class OracleSpec:
    """Which objective to run on, and its noise / data parameters.

    ``validate`` rejects a set field that the kind does not take; ``build``
    gives an unset sigma 0.0, append_bias True and balance False, and raises
    ConfigError for a dataset it cannot parse, balance or take a batch from.
    """

    kind: str  # rosenbrock | quadratic | sigmoid
    sigma: Optional[float] = None  # or one level per coordinate
    diag: Optional[np.ndarray] = None
    dataset: Optional[str] = None
    batch_size: Optional[int] = None
    append_bias: Optional[bool] = None
    balance: Optional[bool] = None

    def validate(self) -> List[str]:
        keys = _ORACLE_KEYS.get(self.kind)
        if keys is None:
            return [f"oracle: unknown kind {self.kind!r}"]
        problems = [f"{name}: not taken by oracle {self.kind!r}"
                    for name, value in vars(self).items()
                    if name != "kind" and value is not None and name not in keys]
        problems += field_problems(**{name: value for name, value in vars(self).items()
                                      if name in ("sigma", "diag", "batch_size")
                                      and name in keys and value is not None})
        if self.kind == "quadratic" and self.diag is None:
            problems.append("diag: required for the quadratic oracle")
        if self.kind == "sigmoid":
            if self.dataset is None:
                problems.append("dataset: required for the sigmoid oracle")
            if self.batch_size is None:
                problems.append("batch_size: required for the sigmoid oracle")
        return problems

    def build(self, seed: int) -> StochasticOracle:
        sigma = 0.0 if self.sigma is None else self.sigma
        if self.kind == "rosenbrock":
            return RosenbrockOracle(sigma=sigma)
        if self.kind == "quadratic":
            return QuadraticOracle(self.diag, sigma=sigma)
        try:
            data = load_libsvm(self.dataset,
                               append_bias=True if self.append_bias is None else self.append_bias)
            if self.balance:
                gen = RngStream(seed, derive_stream_id(_PURPOSE_BALANCE)).generator()
                data = balance_subsample(data, gen)
        except ValueError as exc:  # a malformed file, or one class to balance
            raise ConfigError([f"dataset: {self.dataset}: {exc}"]) from exc
        try:
            return SigmoidLossOracle(data, batch_size=self.batch_size)
        except ValueError as exc:  # a batch larger than the dataset, or M = 0 from zero features
            raise ConfigError([str(exc)]) from exc


@dataclass
class ExperimentSpec:
    """Full description of one experiment; fully determines its outputs."""

    oracle: OracleSpec
    optimizers: List[Tuple[str, OptimizerConfig]]
    T: int
    repetitions: int
    seed: int
    report_every: Optional[int] = None
    output_dir: Optional[str] = None
    keep_raw: bool = False

    def validate(self) -> List[str]:
        counts = dict(T=self.T, repetitions=self.repetitions, seed=self.seed)
        if self.report_every is not None:
            counts["report_every"] = self.report_every
        problems = self.oracle.validate() + field_problems(**counts)
        if not self.optimizers:
            problems.append("optimizers: at least one optimizer section is required")
        names = [name for name, _ in self.optimizers]
        if len(set(names)) != len(names):
            problems.append("optimizers: names must be unique")
        for name, cfg in self.optimizers:
            problems.extend(
                f"optimizer.{name}.{p}" for p in cfg.validate(deferred_ok=True))
        return problems


@dataclass
class OptimizerSeries:
    """Repetition-averaged series for one optimizer."""

    name: str
    kind: str
    t: np.ndarray
    grad_sq_norm: np.ndarray
    f_value: np.ndarray
    stepsize_mean: np.ndarray
    stepsize_coords: Optional[np.ndarray] = None
    optimality_gap: Optional[np.ndarray] = None
    raw: Optional[List[RunResult]] = None


@dataclass
class ResultTable:
    """All optimizer series from one experiment."""

    series: Dict[str, OptimizerSeries] = field(default_factory=dict)
    f_star: Optional[float] = None


def _fill_sgd_gl(cfg: OptimizerConfig, oracle: StochasticOracle, x0, T: int) -> OptimizerConfig:
    # The theoretically tuned constant stepsize needs problem constants; fill
    # anything left unset from the oracle so configs stay terse. The caller's
    # config is left as it was, so a rerun at another T fills afresh.
    if cfg.kind != "sgd_gl":
        return cfg
    fill = {}
    if cfg.sigma is None and hasattr(oracle, "sigma"):
        fill["sigma"] = float(np.sqrt(np.sum(np.asarray(oracle.sigma) ** 2)))
    if cfg.T is None:
        fill["T"] = T
    if cfg.f_gap is None and oracle.f_star is not None:
        fill["f_gap"] = oracle.f(x0) - oracle.f_star
    if cfg.M is None and oracle.smoothness is not None:
        fill["M"] = oracle.smoothness
    return replace(cfg, **fill)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute repetitions x optimizers runs, average, and write CSV output.

    The start point is all zeros for every oracle. Every run goes to one
    ``_run_groups`` call, which steps each loop's runs, all repetitions of
    each optimizer, in one call of that loop. Files are written only when
    the spec names an output directory.
    """
    problems = spec.validate()
    if problems:
        raise ConfigError(problems)
    oracle = spec.oracle.build(spec.seed)
    x0 = np.zeros(oracle.dim)
    reps = spec.repetitions
    oracle_rngs = [RngStream(spec.seed, derive_stream_id(_PURPOSE_ORACLE, rep))
                   for rep in range(reps)]
    configs = []
    for name, cfg in spec.optimizers:
        cfg = _fill_sgd_gl(cfg, oracle, x0, spec.T)
        strict = cfg.validate()
        if strict:
            raise ConfigError([f"optimizer.{name}.{p}" for p in strict])
        configs.append(cfg)
    output_rngs = [[RngStream(spec.seed, derive_stream_id(_PURPOSE_OUTPUT, opt_idx, rep))
                    for rep in range(reps)] for opt_idx in range(len(configs))]
    groups = [[cfg.build(x0) for _ in range(reps)] for cfg in configs]
    results = _run_groups(groups, oracle, spec.T, oracle_rngs, output_rngs, spec.report_every)

    table = ResultTable(f_star=oracle.f_star)
    for opt_idx, ((name, _), cfg) in enumerate(zip(spec.optimizers, configs)):
        sums = {}
        with np.errstate(over="ignore", invalid="ignore"):  # diverged runs add up silently
            for result in results[opt_idx]:
                for attr in ("true_grad_sq_norm", "f_value", "stepsize", "stepsize_coords"):
                    series = getattr(result.trajectory, attr)
                    if attr in sums:
                        sums[attr] += series
                    elif series is not None:
                        sums[attr] = series.astype(np.float64)  # a copy
        mean = {attr: np.divide(total, reps, out=total) for attr, total in sums.items()}
        table.series[name] = OptimizerSeries(
            name=name,
            kind=cfg.kind,
            t=result.trajectory.t.copy(),
            grad_sq_norm=mean["true_grad_sq_norm"],
            f_value=mean["f_value"],
            stepsize_mean=mean["stepsize"],
            stepsize_coords=mean.get("stepsize_coords"),
            optimality_gap=None if oracle.f_star is None else mean["f_value"] - oracle.f_star,
            raw=results[opt_idx] if spec.keep_raw else None,
        )
    if spec.output_dir is not None:
        write_csv(table, spec.output_dir)
    return table


def write_csv(table: ResultTable, out_dir):
    """One CSV per optimizer: t,grad_sq_norm,f_value,stepsize_mean[,...].

    Per-coordinate optimizers append stepsize_1..stepsize_d columns; when the
    oracle declares a known optimum, an optimality_gap column is appended
    last. Numbers are shortest round-trip decimals.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, s in table.series.items():
        path = os.path.join(out_dir, f"{name}.csv")
        header = ["t", "grad_sq_norm", "f_value", "stepsize_mean"]
        columns = [s.grad_sq_norm, s.f_value, s.stepsize_mean]
        if s.stepsize_coords is not None:
            header += [f"stepsize_{i + 1}" for i in range(s.stepsize_coords.shape[1])]
            columns += list(s.stepsize_coords.T)
        if s.optimality_gap is not None:
            header.append("optimality_gap")
            columns.append(s.optimality_gap)
        # One numeric row at a time: the text of a whole table would
        # take about ten times the memory of its floats. No field needs
        # quoting, so these are the bytes csv.writer would write.
        block = np.column_stack(columns)
        try:
            with open(path, "w", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                for t, row in zip(s.t.tolist(), block):
                    fh.write(f"{t},{','.join(map(repr, row.tolist()))}\r\n")
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc


def read_csv_series(path) -> Dict[str, np.ndarray]:
    """Parse back a written CSV into named float columns (t as int64)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: Dict[str, list] = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                cols[h].append(v)
    out: Dict[str, np.ndarray] = {}
    for h, vals in cols.items():
        if h == "t":
            out[h] = np.array([int(v) for v in vals], dtype=np.int64)
        else:
            out[h] = np.array([float(v) if v else np.nan for v in vals])
    return out


# ----------------------------------------------------------------------------
# Config files
# ----------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "oracle", *(key for keys in _ORACLE_KEYS.values() for key in keys),
    "t", "repetitions", "seed", "report_every", "output_dir", "keep_raw",
}
# Config key (configparser lower-cases keys) -> (OptimizerConfig field, type).
_OPTIMIZER_FIELDS = {
    name.lower(): (name, get_args(hint)[0])
    for name, hint in get_type_hints(OptimizerConfig).items() if name != "kind"
}
_OPTIMIZER_KEYS = {"kind", *_OPTIMIZER_FIELDS}


def _get_typed(section, key, cast, problems, where, default=None):
    if key not in section:
        return default
    raw = section[key]
    try:
        if cast is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        problems.append(f"{where}.{key}: cannot parse {raw!r}")
        return default


def parse_config(path) -> ExperimentSpec:
    """Parse the INI-style experiment config documented in the README.

    Collects every problem it finds and raises one ConfigError naming all
    offending fields; a file that is not UTF-8 or not INI syntax (duplicate
    key or section, no section header) is one such problem. Missing file
    surfaces as an OSError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; a problem is reported on one.
        raise ConfigError([f"{path}: {' '.join(str(exc).split())}"]) from exc
    problems: List[str] = []
    if "experiment" not in parser:
        raise ConfigError(["experiment: section missing"])
    exp = parser["experiment"]
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            problems.append(f"experiment.{key}: unknown key")
    kind = exp.get("oracle", "")
    diag = None
    if "diag" in exp:
        try:
            diag = np.array([float(v) for v in exp["diag"].split()])
        except ValueError:
            problems.append(f"experiment.diag: cannot parse {exp['diag']!r}")
    oracle = OracleSpec(
        kind=kind,
        sigma=_get_typed(exp, "sigma", float, problems, "experiment"),
        diag=diag,
        dataset=exp.get("dataset"),
        batch_size=_get_typed(exp, "batch_size", int, problems, "experiment"),
        append_bias=_get_typed(exp, "append_bias", bool, problems, "experiment"),
        balance=_get_typed(exp, "balance", bool, problems, "experiment"),
    )
    optimizers: List[Tuple[str, OptimizerConfig]] = []
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("optimizer."):
            problems.append(f"{section}: unknown section (expected optimizer.<name>)")
            continue
        name = section[len("optimizer."):]
        sec = parser[section]
        for key in sec:
            if key not in _OPTIMIZER_KEYS:
                problems.append(f"{section}.{key}: unknown key")
        values = {attr: _get_typed(sec, key, cast, problems, section)
                  for key, (attr, cast) in _OPTIMIZER_FIELDS.items()}
        optimizers.append((name, OptimizerConfig(kind=sec.get("kind", ""), **values)))
    spec = ExperimentSpec(
        oracle=oracle,
        optimizers=optimizers,
        T=_get_typed(exp, "t", int, problems, "experiment", 0),
        repetitions=_get_typed(exp, "repetitions", int, problems, "experiment", 0),
        seed=_get_typed(exp, "seed", int, problems, "experiment", 0),
        report_every=_get_typed(exp, "report_every", int, problems, "experiment"),
        output_dir=exp.get("output_dir"),
        keep_raw=_get_typed(exp, "keep_raw", bool, problems, "experiment", False),
    )
    problems.extend(spec.validate())
    if problems:
        raise ConfigError(problems)
    return spec
