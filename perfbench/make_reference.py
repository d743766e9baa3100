#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs every run compares against.

Run from the root of a checkout, on the commit whose results are the
reference:

    python3 perfbench/make_reference.py

For each workload and both modes (full and smoke) the snapshot holds the
outputs at the reference seed: the LCL bits of one round of every LCL
workload, and the SHA-256 of the report.json bytes of each study workload.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    snapshot = {"reference_seed": workloads.REFERENCE_SEED}
    for mode, sizes in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
        snapshot[mode] = {name: workloads.make(name, sizes, nproc=2).reference()
                          for name in workloads.NAMES}
    for mode in ("full", "smoke"):
        threaded = {v for k, v in snapshot[mode]["study-censored"].items() if "@threads=" in k}
        if len(threaded) != 1:
            print(f"{mode}: report.json differs between thread counts", file=sys.stderr)
            return 1
    (HERE / "reference.json").write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
