"""Record the output references the benchmark checks against.

For every workload and both reference seeds (the workload's default seed and
``HELD_OUT_SEED``) this stores the SHA-256 of each output in
``perfbench/references.json``; workloads checked by value tolerance also get
their CSVs gzipped under ``perfbench/reference_csv/``. Run it only at a commit
whose outputs are the agreed reference:

    python3 perfbench/record_references.py
"""

import gzip
import json
import os
import shutil

import run
from workloads import HELD_OUT_SEED, REFERENCE_CSV_DIR, REFERENCE_FILE, WORKLOADS, fresh_out_dir


def main():
    sgdol = run.import_sgdol()
    references = {}
    shutil.rmtree(REFERENCE_CSV_DIR, ignore_errors=True)
    for name, workload in WORKLOADS.items():
        references[name] = {}
        for seed in (workload.default_seed(sgdol), HELD_OUT_SEED):
            out_dir = fresh_out_dir(name)
            inp = workload.make_input(sgdol, seed, out_dir)
            outcome = workload.check(inp, workload.execute(sgdol, inp))
            if outcome.failed:
                raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
            if workload.kind == "verify":
                references[name][str(seed)] = {"verdicts": outcome.digests["verdicts"]}
                continue
            references[name][str(seed)] = outcome.digests
            if workload.tolerance is not None:
                dest = os.path.join(REFERENCE_CSV_DIR, name, str(seed))
                os.makedirs(dest)
                for fname in outcome.digests:
                    with open(os.path.join(out_dir, fname), "rb") as src, \
                            gzip.GzipFile(os.path.join(dest, fname + ".gz"), "wb", mtime=0) as gz:
                        gz.write(src.read())
            print(f"{name} seed {seed}: {len(outcome.digests)} outputs recorded")
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
