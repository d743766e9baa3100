#!/usr/bin/env python3
"""Time the dbpt curve kernel per grid point on a few systems, for a BENCH file's kernel_cost.

Run from the root of a checkout, or point ``--src`` at another checkout's
``src`` to time that code with the same script:

    python3 tools/kernel_cost.py [--src DIR] [--datasets 6]

For each system, its components solved to the system reliability it lists
(0.9 unless the name says otherwise) at t = 1, the script runs one
warm-up curve, then ``bootstrap_curve("dbpt", ...)`` on
``default_t_grid(1.0, 50, 1.0)`` with B = 1000, C = 500 for each of
``--datasets`` n = 5 datasets, and prints one JSON object: per system the
median ms per grid point and the median ``getrusage`` minor faults per
curve.  It also times ``delta_curve`` on the same grid and datasets, and
prints its median ms per grid point.  After every system is timed, a
separate pass runs the same dbpt curves again under ``tracemalloc`` and
prints each system's median peak traced memory per curve, in MB, so the
tracing does not touch the timings.  Alternate processes of the two sides
to compare them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# (structure, family, system reliability the components are solved to at t = 1)
SYSTEMS = [
    ("series(c1,c2,c3)", "weibull", 0.9),
    ("series(c1,c2,c3)", "lognormal", 0.9),
    ("series(c1,c2,c3)", "exponential", 0.9),
    ("parallel(c1,c2,c3)", "exponential", 0.9),
    ("koutofn(2;c1,c2,c3,c4,c5)", "weibull", 0.9),
    ("series(c1,...,c16)", "weibull", 0.9),
    ("series(c1,c2,c3)", "weibull", 0.5),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--datasets", type=int, default=6)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import relbound as rb
    from relbound.rng import generator

    grid = rb.default_t_grid(1.0, 50, 1.0)
    cells = []
    for text, name, target in SYSTEMS:
        node, family = rb.parse_structure(text), rb.family_from_name(name)
        models, _ = rb.solve_identical_components(node, family, target, 1.0)
        key = f"{text} {name}" + ("" if target == 0.9 else f" R={target:g}")
        cells.append((key, node, [family] * len(models), models))

    def curve(node, families, data, seed):
        rb.bootstrap_curve("dbpt", node, families, data, grid, 0.1, 1000, 500, 100 + seed)

    def dataset(models, seed):
        return [rb.sample_lifetimes(m, 5, generator(seed, 0, i)) for i, m in enumerate(models)]

    out = {}
    for key, node, families, models in cells:
        ms, faults, delta_ms = [], [], []
        for seed in range(-1, args.datasets):  # seed -1 is the warm-up
            data = dataset(models, abs(seed))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            curve(node, families, data, abs(seed))
            elapsed = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            rb.delta_curve(node, families, data, grid, 0.1)
            delta_elapsed = time.perf_counter() - start
            if seed >= 0:
                ms.append(elapsed * 1e3 / grid.size)
                faults.append(after - before)
                delta_ms.append(delta_elapsed * 1e3 / grid.size)
        out[key] = {"ms_per_point": round(statistics.median(ms), 2),
                    "minflt_per_curve": statistics.median(faults),
                    "delta_ms_per_point": round(statistics.median(delta_ms), 3)}
    for key, node, families, models in cells:
        peaks = []
        for seed in range(args.datasets):
            data = dataset(models, seed)
            tracemalloc.start()
            try:
                curve(node, families, data, seed)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        out[key]["tracemalloc_peak_mb"] = round(statistics.median(peaks) / 2 ** 20, 2)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
