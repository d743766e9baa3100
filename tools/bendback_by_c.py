#!/usr/bin/env python3
"""Count the dbpt curves that bend back in a study's first replications, at several C.

Run from the root of a checkout:

    python3 tools/bendback_by_c.py [--config configs/table1_desk.json]
                                   [--replications 60] [--C 500 1000 2000]

Each replication draws its data and its curve seed with the study's own keys
(``simulation._one_replication``): the data of component i from
``generator(child_seedseq(seed, 0, rep), 0, i)`` at the config's first n, and
the curve from ``child_seedseq(rep_seed, 100 + mi)``, where mi is dbpt's
place in the config's methods.  So at the config's C the counts are those of
the study's first replications.  For each C the script prints the curves
with at least one bend-back violation (``bend_back_violations`` of
``lcl_curve`` on the study's grid), those whose largest upward step exceeds
1e-3, and the median largest step of the bent curves; the last line is the
table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from relbound.distributions import ComponentModel, family_from_name, sample_lifetimes  # noqa: E402
from relbound.rng import child_seedseq, generator  # noqa: E402
from relbound.simulation import (StudyConfig, bend_back_violations, default_t_grid,  # noqa: E402
                                 lcl_curve, solve_identical_components)
from relbound.structures import parse_structure  # noqa: E402


def study_inputs(config: StudyConfig):
    """The structure, families, models and bend-back grid the study runs on."""
    if config.censoring_fraction is not None:
        raise SystemExit("censored studies impute their data; this script draws complete data")
    node = parse_structure(config.structure)
    if config.components is None:
        models, _ = solve_identical_components(node, family_from_name(config.family),
                                               config.target_reliability, config.t)
    else:
        models = [ComponentModel(family_from_name(c["family"]),
                                 **{k: v for k, v in c.items() if k != "family"})
                  for c in config.components]
    grid = default_t_grid(config.t, config.bend_back_points, config.bend_back_decades)
    return node, [m.family for m in models], models, grid


def count_bent(config: StudyConfig, C: int, replications: int) -> dict:
    node, families, models, grid = study_inputs(config)
    mi, n = config.methods.index("dbpt"), config.n_values[0]
    steps = []
    for rep in range(replications):
        rep_seed = child_seedseq(config.seed, 0, rep)
        data = [sample_lifetimes(m, n, generator(rep_seed, 0, i)) for i, m in enumerate(models)]
        curve = lcl_curve("dbpt", node, families, data, grid, config.alpha, config.B, C,
                          child_seedseq(rep_seed, 100 + mi),
                          paper_literal_aux=config.paper_literal_aux)
        if bend_back_violations(curve):
            steps.append(float(np.max(np.diff(curve))))
    return {"C": C, "replications": replications, "bent": len(steps),
            "largest_step_over_1e-3": sum(step > 1e-3 for step in steps),
            "median_largest_step": statistics.median(steps) if steps else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "table1_desk.json"))
    parser.add_argument("--replications", type=int, default=60)
    parser.add_argument("--C", type=int, nargs="+", default=[500, 1000, 2000])
    args = parser.parse_args(argv)
    config = StudyConfig.from_dict(json.loads(Path(args.config).read_text()))
    rows = []
    print("| C | curves that bend back | largest step > 1e-3 | median largest step |")
    print("| --- | --- | --- | --- |")
    for C in args.C:
        row = count_bent(config, C, args.replications)
        rows.append(row)
        median = row["median_largest_step"]
        print(f"| {C} | {row['bent']} of {row['replications']} | "
              f"{row['largest_step_over_1e-3']} | "
              f"{'-' if median is None else f'{median:.2g}'} |", flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
