"""Time one cold set-up in a fresh interpreter and print the seconds.

Set-up is importing ``sgdol`` (numpy and the standard library included),
then, for an experiment workload, ``parse_config`` and ``OracleSpec.build``
(which loads the LibSVM data for the sigmoid oracle).

Usage:  python3 perfbench/setup_probe.py <src dir> [<config.ini>]
Run it from the repository root, where config paths resolve.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sgdol  # noqa: E402

if len(sys.argv) > 2:
    spec = sgdol.harness.parse_config(sys.argv[2])
    spec.oracle.build(spec.seed)
print(repr(time.perf_counter() - t0))
