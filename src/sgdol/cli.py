"""Command-line entry point: run experiments, verify the build, inspect data.

Exit codes: 0 success, 1 validation/verification failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from .core import field_problems
from .diagnostics import run_verification
from .harness import ConfigError, parse_config, run_experiment
from .oracles import LibsvmParseError, load_libsvm

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdol",
        description="Stochastic optimization with online-learned stepsizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config", help="path to an INI experiment config")

    p_verify = sub.add_parser("verify", help="run the diagnostic verification suite")
    p_verify.add_argument("--seed", type=int, default=20190901)
    p_verify.add_argument("--samples", type=int, default=20000,
                          help="Monte Carlo sample count for statistical checks")
    p_verify.add_argument("--json", action="store_true",
                          help="print one JSON object instead of one line per check")

    p_parse = sub.add_parser("parse-libsvm", help="validate a LibSVM file and print counts")
    p_parse.add_argument("path")
    p_parse.add_argument("--no-bias", action="store_true",
                         help="do not append the constant bias feature")
    p_parse.add_argument("--n-features", type=int, default=None,
                         help="expected feature count (default: inferred)")
    return parser


def _cmd_run(args) -> int:
    try:
        spec = parse_config(args.config)
        table = run_experiment(spec)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a run that cannot go on; a diverging run goes on, to NaN
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    for name, series in table.series.items():
        print(f"{name}: {len(series.t)} recorded points, "
              f"final grad_sq_norm {float(series.grad_sq_norm[-1])!r}")
    if spec.output_dir:
        print(f"wrote CSV files to {spec.output_dir}")
    return 0


def _refused(flag: str, name: str, value) -> bool:
    """Print the range problem of a flag's value, that of the library parameter
    ``name`` it sets, under the flag's name; whether there was one."""
    problems = field_problems(**{name: value})
    if problems:
        print(f"error: --{flag}{problems[0][len(name):]}", file=sys.stderr)
    return bool(problems)


def _cmd_verify(args) -> int:
    if _refused("samples", "mc_samples", args.samples) or _refused("seed", "seed", args.seed):
        return 1
    results = run_verification(seed=args.seed, mc_samples=args.samples)
    passed = sum(r.passed for r in results)
    if args.json:
        print(json.dumps({"seed": args.seed, "samples": args.samples, "passed": passed,
                          "total": len(results),
                          "checks": [dataclasses.asdict(r) for r in results]}))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_parse_libsvm(args) -> int:
    if args.n_features is not None and _refused("n-features", "n_features", args.n_features):
        return 1
    append_bias = not args.no_bias
    try:
        data = load_libsvm(args.path, append_bias=append_bias,
                           n_features=args.n_features)
    except LibsvmParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    raw = data.n_features - 1 if append_bias else data.n_features
    note = " (bias column appended)" if append_bias else ""
    print(f"{len(data)} rows, {raw} features{note}")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to 1 and keep 0
        # for --help.
        return 0 if exc.code == 0 else 1
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_parse_libsvm(args)


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
