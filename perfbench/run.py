#!/usr/bin/env python3
"""Benchmark of relbound: LCL latency and coverage-study throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lcl-dbpt --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same calls untraced and traced, replays every bootstrap call stage
by stage, and reports the per-layer metrics.  ``--smoke`` shrinks B, C and
replication counts so that every path finishes in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A fuller record, with the environment, is written to
``perfbench/out/``.  The exit code is 0 only when every output checked out.
"""

import time

# setup_s counts from here, before numpy, scipy and relbound are imported
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: the study pool supplies the parallelism, so pool threads
# times BLAS threads stays within nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny B, C and replication counts")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    try:
        import measure
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import relbound from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.NAMES)
    if args.setup_only:
        measure.set_up(args)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0
    try:
        result = measure.traced(args) if args.trace else measure.untraced(args)
    except Exception:
        # a program error outside any op: report it, never crash
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
