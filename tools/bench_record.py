#!/usr/bin/env python3
"""Run paired perfbench comparisons of two checkouts and assemble a BENCH file.

Run from the root of a checkout.  Two steps:

    python3 tools/bench_record.py run --parent DIR --change DIR --runs RUNS \\
        [--pairs 10] [--seconds 25] [--seed 1] [--workload NAME ...]
    python3 tools/bench_record.py build RUNS --parent-commit SHA --change TEXT \\
        [--claim WORKLOAD:METRIC] [--section NAME=FILE.json ...] --out BENCH_N.json

``run`` runs ``perfbench/run.py --trace 0`` in each checkout, the two sides
of a pair back to back for each workload in turn, alternating which side
goes first, and copies each result record from the checkout's
``perfbench/out/`` to ``RUNS/pair-NN/<side>/``; ``RUNS/pair-NN/first`` names
the side that ran first.  It stops, naming the pair, side and workload, at a
run that exits with a code other than 0 (correct) or 1 (incorrect, still
recorded), or writes no record.  Each checkout should be a fresh ``git archive`` of
its commit, warmed by one ``--smoke`` run per workload.

``build`` reads those records and writes, per workload, whether every run
was correct, its reference mismatches and failed operations, and for each
end-to-end metric of ``BENCHMARK.json`` both sides' runs, median and
quartiles, the change's relative move against the parent median, the
parent's interquartile spread relative to its median, the pairs the change
won, and whether the move stays within the metric's bound.  ``--claim``
adds whether the change won at least 9 of 10 pairs and beat the parent
median by more than the parent's interquartile range.  Each ``--section``
adds a JSON file (a kernel-cost table, Tier-1 times) under its name.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record_name(workload: str, seed: int) -> str:
    return f"{workload}-seed{seed}-trace0.json"


def run_pairs(args) -> int:
    dirs = {"parent": Path(args.parent), "change": Path(args.change)}
    workloads = args.workload or [w["name"] for w in benchmark()["workloads"]]
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        pair_dir = Path(args.runs) / f"pair-{pair + 1:02d}"
        for side in SIDES:
            (pair_dir / side).mkdir(parents=True, exist_ok=True)
        (pair_dir / "first").write_text(order[0] + "\n")
        for workload in workloads:
            for side in order:
                command = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", "0"]
                record = dirs[side] / "perfbench" / "out" / record_name(workload, args.seed)
                # a run that dies before writing must not leave the last pair's record
                record.unlink(missing_ok=True)
                code = subprocess.run(command, cwd=dirs[side], stdout=subprocess.DEVNULL,
                                      check=False).returncode
                if code not in (0, 1) or not record.exists():
                    raise SystemExit(f"pair {pair + 1} {side} {workload}: perfbench exited "
                                     f"{code}" + ("" if record.exists() else ", no record"))
                shutil.copy(record, pair_dir / side / record.name)
                print(f"pair {pair + 1} {workload} {side}", flush=True)
    return 0


def _summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``a`` is better than ``b``."""
    return a < b if better == "lower" else a > b


def build(args) -> int:
    pairs = sorted(p for p in Path(args.runs).iterdir() if p.name.startswith("pair-"))
    spec = benchmark()
    records = {}  # (pair index, side, workload) -> perfbench record
    for i, pair in enumerate(pairs):
        for side in SIDES:
            for path in (pair / side).glob("*.json"):
                record = json.loads(path.read_text())
                records[i, side, record["workload"]] = record
    workload_names = [w["name"] for w in spec["workloads"]
                      if all((i, s, w["name"]) in records for i in range(len(pairs))
                             for s in SIDES)]
    any_record = next(iter(records.values()))
    # the environment every record shares; each workload records what its own
    # runs add to it (such as its pool's threads)
    envs = [r["environment"] for r in records.values()]
    shared = {k: v for k, v in envs[0].items() if all(e.get(k) == v for e in envs)}
    out = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "command": (f"python3 perfbench/run.py --workload <workload> --seed {any_record['seed']}"
                    f" --seconds {any_record['seconds']:g} --trace 0"),
        "how": ("each side a fresh git archive checkout of its commit, warmed by one --smoke "
                "run per workload; pairs alternate which side runs first; within a pair each "
                "workload runs on both sides back to back, the workloads in turn "
                "(tools/bench_record.py run)"),
        "environment": shared,
        "pairs": len(pairs),
        "first_in_pair": [(pair / "first").read_text().strip() for pair in pairs],
        "workloads": {},
    }
    for name in workload_names:
        runs = {side: [records[i, side, name] for i in range(len(pairs))] for side in SIDES}
        entry = {
            "correct": {s: all(r["result"]["correct"] for r in runs[s]) for s in SIDES},
            "ref_mismatch": {s: sum(r["details"].get("ref_mismatch", 0) for r in runs[s])
                             for s in SIDES},
            "failed": {s: sum(r["result"]["failed"] for r in runs[s]) for s in SIDES},
            "metrics": {},
        }
        envs = [r["environment"] for side in SIDES for r in runs[side]]
        own = {k: v for k, v in envs[0].items() if k not in shared}
        if own:
            entry["environment"] = own
        if any(e != envs[0] for e in envs):
            entry["environments_differ"] = True
        for metric in spec["end_to_end"]:
            key, better, bound = metric["name"], metric["better"], metric["bound"]
            values = {s: [r["result"]["metrics"][key]["value"] for r in runs[s]] for s in SIDES}
            parent, change = _summary(values["parent"]), _summary(values["change"])
            move = change["median"] / parent["median"] - 1.0
            worse_by = move if better == "lower" else -move
            entry["metrics"][key] = {
                "unit": metric["unit"], "better": better, "bound": bound,
                "parent": parent, "change": change,
                "change_vs_parent": move,
                "parent_spread": (parent["q3"] - parent["q1"]) / parent["median"],
                "change_won_pairs": sum(_better(c, p, better)
                                        for p, c in zip(values["parent"], values["change"])),
                "verdict": "within bound" if worse_by <= bound else "worse than bound",
            }
        out["workloads"][name] = entry
    if args.claim:
        workload, metric = args.claim.split(":")
        m = out["workloads"][workload]["metrics"][metric]
        gain = m["change"]["median"] - m["parent"]["median"]
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        won = m["change_won_pairs"]
        out["claim_result"] = {
            "workload": workload, "metric": metric, "pairs": len(pairs),
            "change_won_pairs": won, "median_gain": gain, "parent_iqr": iqr,
            "ratio": m["change"]["median"] / m["parent"]["median"],
            "met": won >= 0.9 * len(pairs) and (gain if m["better"] == "higher" else -gain) > iqr,
        }
    for section in args.section:
        name, path = section.split("=", 1)
        out[name] = json.loads(Path(path).read_text())
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}: {len(pairs)} pairs, workloads {workload_names}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternating perfbench pairs")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--runs", required=True, help="directory to collect the records in")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=25.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workload", action="append", help="default: every workload")
    make = commands.add_parser("build", help="assemble a BENCH file from collected records")
    make.add_argument("runs")
    make.add_argument("--parent-commit", required=True)
    make.add_argument("--change", required=True, help="one line naming the change")
    make.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    make.add_argument("--section", action="append", default=[], help="NAME=FILE.json")
    make.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return run_pairs(args) if args.command == "run" else build(args)


if __name__ == "__main__":
    sys.exit(main())
