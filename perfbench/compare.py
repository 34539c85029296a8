"""Compare two benchmark results saved with ``run.py --out``.

Usage:  python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results and the ratio NEW / BASE. Refuses (exit
code 2) to compare results of different workloads or trace modes, or results
taken on different kernel backends (numba JIT vs plain Python): those
numbers measure different code.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        base = json.load(fh)
    with open(argv[2]) as fh:
        new = json.load(fh)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs ({base[key]!r} vs {new[key]!r})",
                  file=sys.stderr)
            return 2
    if base["env"]["numba_enabled"] != new["env"]["numba_enabled"]:
        print("refusing to compare: results were taken on different kernel backends "
              f"(numba_enabled {base['env']['numba_enabled']} vs {new['env']['numba_enabled']})",
              file=sys.stderr)
        return 2
    for key in ("git_sha", "python", "numpy", "nproc"):
        if base["env"][key] != new["env"][key]:
            print(f"note: {key} differs: {base['env'][key]} vs {new['env'][key]}")
    print(f"{'metric':36s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, entry in base["metrics"].items():
        b = entry["value"]
        n = new["metrics"][name]["value"]
        ratio = f"{n / b:9.4f}" if b else f"{'-':>9s}"
        print(f"{name:36s} {b:14.6g} {n:14.6g} {ratio} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
