"""The untraced and traced runs of one workload, and the metrics they yield."""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from relbound import simulation
from relbound.cli import dumps

import workloads
from replay import REPLAYED, STAGES, Captured, Replayer, same_bits
from spans import Tracer, patched, summarize

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

# ops_per_s is the median rate over windows of whole rounds this long.
RATE_WINDOW_S = 1.0

# End-to-end metrics, all measured untraced: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Live spans of the traced run sit where relbound.simulation looks these
# names up; the stages inside bp_lcl, bb_lcl and dbpt_lcl come from the replay.
LIVE_SPANS = {
    "bp_lcl": "bootstrap.bp_lcl",
    "bb_lcl": "bootstrap.bb_lcl",
    "dbpt_lcl": "bootstrap.dbpt_lcl",
    "delta_lcl": "estimators.delta_lcl",
    "type2_censor": "censoring.type2_censor",
    "impute": "censoring.impute",
    "sample_lifetimes": "distributions.sample_lifetimes",
}
METHODS = ("bp", "bb", "dbpt", "delta", "delta-standard")
# Calls a study replication is made of; their time is the pool's busy time.
POOL_WORK = tuple(f"simulation.compute_lcl.{m}" for m in METHODS) + (
    "simulation.lcl_curve", "censoring.type2_censor", "censoring.impute",
    "distributions.sample_lifetimes")


# --- set-up --------------------------------------------------------------------


def sizes_of(args):
    return workloads.SMOKE if args.smoke else workloads.FULL


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_up(args):
    """Build the workload and warm it up with round 0; timed runs start at round 1."""
    wl = workloads.make(args.workload, sizes_of(args), nproc())
    wl.setup(args.seed)
    for op in wl.round(0):
        wl.call(op)
    return wl


def setup_samples(args, probes: int) -> list:
    """Set-up seconds of ``probes`` fresh processes, run one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# --- failure accounting ----------------------------------------------------------


class FailureLog:
    """Exceptions by type, each with its first message and traceback.

    The same exception object is counted once, however many wrappers and op
    boundaries it passes on its way out.
    """

    def __init__(self):
        self.by_type: dict[str, dict] = {}
        self._recent = collections.deque(maxlen=64)
        self._lock = threading.Lock()

    def record(self, exc: BaseException) -> None:
        with self._lock:
            if any(seen is exc for seen in self._recent):
                return
            self._recent.append(exc)
            entry = self.by_type.setdefault(type(exc).__name__, {
                "count": 0, "first_message": str(exc),
                "first_traceback": "".join(traceback.format_exception(exc)),
            })
            entry["count"] += 1

    def tap(self, fn):
        """``fn``, recording every exception that leaves it (and re-raising it)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.record(exc)
                raise

        return wrapper


def failure_taps(log: FailureLog):
    """A study swallows RelboundErrors from these calls into bare counts."""
    return [(simulation, name, log.tap(getattr(simulation, name)))
            for name in ("compute_lcl", "lcl_curve")]


def call_op(wl, op, log: FailureLog):
    """The op's output, or the exception it raised (recorded in ``log``)."""
    try:
        return wl.call(op)
    except Exception as exc:
        log.record(exc)
        return exc


class Tally:
    """Attempted and failed LCLs, and what the output checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wl, op, out) -> None:
        attempted = wl.attempted(op)
        self.attempted += attempted
        if isinstance(out, Exception):
            self.failed += attempted
        else:
            self.failed += wl.failed_within(op, out)
            self.problems += wl.check(op, out)


# --- the untraced run --------------------------------------------------------------


def untraced(args) -> dict:
    sizes = sizes_of(args)
    setup = setup_samples(args, sizes.setup_probes)
    log = FailureLog()
    tally = Tally()
    latencies = []
    units = 0
    rates = []  # ops per second in each window of whole rounds
    with patched(failure_taps(log)):
        wl = set_up(args)
        start = window_start = perf_counter()
        window_ops = 0
        r = 1
        while True:
            for op in wl.round(r):
                t0 = perf_counter()
                out = call_op(wl, op, log)
                latencies.append(perf_counter() - t0)
                # checked and dropped at once: kept outputs would grow the
                # peak RSS with the number of ops
                tally.add(wl, op, out)
                units += wl.units(op)
                window_ops += 1
            r += 1
            now = perf_counter()
            if now - window_start >= RATE_WINDOW_S:
                rates.append(window_ops / (now - window_start))
                window_start, window_ops = now, 0
            if now - start >= args.seconds:
                break
        wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_mismatch, ref_problems = reference_check(args, log)
    tally.problems += ref_problems

    # The exclusive-method quantile interpolates between neighbouring ranks.
    # The LCL matrix leaves a gap between its two slowest cells right at the
    # 90th percentile; a nearest-rank p90 would jump across that gap.
    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * p90,
        # the median window rate shrugs off a stall shorter than half the run
        "ops_per_s": statistics.median(rates) if rates else len(latencies) / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "ops": len(latencies),
        "samples_above_p90": sum(1 for x in latencies if x > p90),
        "timed_wall_s": wall,
        "setup_samples_s": setup,
        "units_per_op": units / len(latencies),
        "rate_windows": len(rates),
        "failed_frac": tally.failed / tally.attempted,
        "ref_mismatch": ref_mismatch,
    }
    print_untraced(args, wl, metrics, details, tally)
    return finish(args, wl, tally, log, metrics, dict(END_TO_END), details)


def reference_check(args, log: FailureLog):
    """Outputs at the reference seed that differ from the committed snapshot."""
    problems = []
    try:
        expected = json.loads(REFERENCE_FILE.read_text())["smoke" if args.smoke else "full"]
        expected = expected[args.workload]
    except (OSError, KeyError, ValueError) as exc:
        return 1, [f"reference snapshot unreadable: {exc!r}"]
    try:
        got = workloads.make(args.workload, sizes_of(args), nproc()).reference()
    except Exception as exc:
        log.record(exc)
        return len(expected), [f"reference run raised {type(exc).__name__}: {exc}"]
    mismatched = sorted(k for k in expected if got.get(k) != expected[k])
    problems += [f"reference mismatch: {k}" for k in mismatched]
    threaded = [v for k, v in got.items() if "@threads=" in k]
    if len(set(threaded)) > 1:
        problems.append("report.json differs between thread counts")
    return len(mismatched), problems


# --- the traced run -----------------------------------------------------------------


def live_spans(tracer: Tracer, captures: list):
    """Span wrappers where relbound.simulation looks its callees up.

    ``compute_lcl`` and ``lcl_curve`` also capture bootstrap calls for replay.
    """
    targets = [(simulation, attr, tracer.wrap(getattr(simulation, attr), name))
               for attr, name in LIVE_SPANS.items()]

    def capturing(attr, kind):
        fn = getattr(simulation, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            counts = {"points": len(a["t_grid"])} if kind == "curve" else {}
            name = ("simulation.lcl_curve" if kind == "curve"
                    else f"simulation.compute_lcl.{a['method']}")
            with tracer.span(name, **counts):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                seconds = perf_counter() - t0
            if a["method"] in REPLAYED:
                if kind == "curve":
                    live, t = np.array(out, copy=True), a["t_grid"]
                else:
                    live = out.raw_value if a["method"] == "bb" else out.lcl
                    t = a["t"]
                captures.append(Captured(kind, a["method"], a["node"], a["families"],
                                         a["datasets"], t, a["alpha"], a["B"], a["C"],
                                         a["seed"], a["paper_literal_aux"], live, seconds))
            return out

        return wrapper

    targets.append((simulation, "compute_lcl", capturing("compute_lcl", "lcl")))
    targets.append((simulation, "lcl_curve", capturing("lcl_curve", "curve")))
    return targets


def same_output(wl, a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    if wl.kind == "lcl":
        return same_bits(a.raw_value, b.raw_value)
    return dumps(a.to_json_dict()) == dumps(b.to_json_dict())


def traced(args) -> dict:
    """Each op runs untraced, then traced (order alternating), then is replayed."""
    log = FailureLog()
    tracer = Tracer()
    captures: list[Captured] = []
    replayer = Replayer(tracer)
    tally = Tally()
    walls = {"untraced": 0.0, "traced": 0.0}
    replayed = items = 0
    live_seconds = 0.0
    reports = []
    with patched(failure_taps(log)):
        wl = set_up(args)
        live = live_spans(tracer, captures)
        start = perf_counter()
        r, op_id = 1, 0
        while True:
            for op in wl.round(r):
                tracer.op = op_id
                outs = {}
                for mode in (("untraced", "traced") if op_id % 2 else ("traced", "untraced")):
                    with patched(live if mode == "traced" else []):
                        t0 = perf_counter()
                        outs[mode] = call_op(wl, op, log)
                        walls[mode] += perf_counter() - t0
                tally.add(wl, op, outs["untraced"])
                if not same_output(wl, outs["untraced"], outs["traced"]):
                    tally.problems.append(f"{op.label}: traced output differs from untraced")
                for call in captures:
                    value = replayer.run(call)
                    replayed += 1
                    live_seconds += call.live_seconds
                    if not same_bits(value, call.live):
                        tally.problems.append(
                            f"replay of {call.kind} {call.method} differs from the live "
                            f"result: {value!r} != {call.live!r}")
                captures.clear()
                items += wl.units(op)
                if wl.kind == "study" and not isinstance(outs["traced"], Exception):
                    reports.append(outs["traced"])
                op_id += 1
            r += 1
            if perf_counter() - start >= args.seconds:
                break
    tracer.op = None

    summary = summarize(tracer.spans)
    metrics = per_layer(wl, summary, items, walls, live_seconds, reports, tally)
    details = {"ops": op_id, "items": items, "replayed_calls": replayed,
               "untraced_wall_s": walls["untraced"], "traced_wall_s": walls["traced"]}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{stem(args)}-spans.jsonl"
    tracer.write_jsonl(spans_path)
    details["spans_file"] = str(spans_path.relative_to(HERE.parent))
    details["span_summary"] = summary
    print_traced(args, wl, metrics, details)
    return finish(args, wl, tally, log, metrics, PER_LAYER_UNITS, details)


PER_LAYER_UNITS = {
    "bootstrap.dbpt_lcl.busy_ms": "ms/op",
    "bootstrap.bp_lcl.busy_ms": "ms/op",
    "bootstrap.bb_lcl.busy_ms": "ms/op",
    "estimators.moment_estimate.busy_ms": "ms/op",
    "estimators.delta_lcl.busy_ms": "ms/op",
    "resampling.gen_aux_batch.busy_ms": "ms/op",
    "resampling.gen_aux_batch.draws": "count/op",
    "resampling.transform_w.busy_ms": "ms/op",
    "resampling.transform_w.elems": "count/op",
    "distributions.sf.busy_ms": "ms/op",
    "distributions.sf.elems": "count/op",
    "structures.eval_reliability.busy_ms": "ms/op",
    "structures.eval_reliability.elems": "count/op",
    "selection.u_count.busy_ms": "ms/op",
    "selection.kth_smallest.busy_ms": "ms/op",
    "kernel.layer2.bytes_computed": "bytes/op",
    "censoring.type2_censor.busy_ms": "ms/op",
    "censoring.impute.busy_ms": "ms/op",
    "simulation.lcl_curve.busy_ms": "ms/op",
    "simulation.lcl_curve.points": "count/op",
    **{f"simulation.compute_lcl.{m}.busy_ms": "ms/op" for m in METHODS},
    "simulation.pool.busy_frac": "ratio",
    "simulation.failures.total": "count",
    "simulation.cell.coverage.dbpt": "ratio",
    "simulation.cell.bend_back.dbpt": "ratio",
    "replay.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer(wl, summary, items, walls, live_seconds, reports, tally) -> dict:
    """Per-layer metrics, per op: per LCL (lcl-*) or per replication (study-*)."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name, key):
        return summary.get(name, {}).get("counts", {}).get(key, 0) / items

    metrics = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "busy_ms":
            metrics[metric] = 1e3 * total(layer) / items
        elif kind in ("draws", "elems", "points"):
            metrics[metric] = count(layer, kind)
    metrics["kernel.layer2.bytes_computed"] = sum(count(s, "layer2_bytes") for s in STAGES)
    pool_busy = sum(total(name) for name in POOL_WORK)
    metrics["simulation.pool.busy_frac"] = (
        pool_busy / (wl.pool_threads * walls["traced"]) if wl.kind == "study" else 0.0)
    metrics["simulation.failures.total"] = tally.failed
    metrics.update(dbpt_cell_rates(reports))
    metrics["replay.coverage_frac"] = (
        sum(total(s) for s in STAGES) / live_seconds if live_seconds else 0.0)
    metrics["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    return metrics


def dbpt_cell_rates(reports) -> dict:
    """Pooled dbpt coverage and bend-back rate over the successful replications."""
    ok = covered = bent = 0
    for report in reports:
        for cell in report.cells:
            if cell.method != "dbpt" or cell.coverage is None:
                continue
            done = cell.replications - cell.failures
            ok += done
            covered += round(cell.coverage * done)
            bent += cell.bend_back or 0
    return {"simulation.cell.coverage.dbpt": covered / ok if ok else 0.0,
            "simulation.cell.bend_back.dbpt": bent / ok if ok else 0.0}


# --- reporting ---------------------------------------------------------------------


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")


def environment(wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pool_threads": wl.pool_threads,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Threads of numpy's OpenBLAS as it reports them, else the pinned setting."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def finish(args, wl, tally, log, metrics, units, details) -> dict:
    correct = not tally.problems
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "sizes": vars(wl.sizes),
        "environment": environment(wl), "result": result, "details": details,
        "failures": log.by_type, "problems": tally.problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem(args)}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in tally.problems[:20]:
        print(f"PROBLEM: {problem}")
    for name, entry in log.by_type.items():
        print(f"failure: simulation.failures.{name} = {entry['count']} "
              f"(first: {entry['first_message']})")
    print(f"correct: {str(correct).lower()}")
    return result


def header(args, wl) -> None:
    env = environment(wl)
    print(f"relbound benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}" + (" (smoke)" if args.smoke else ""))
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))


def print_untraced(args, wl, metrics, details, tally) -> None:
    header(args, wl)
    is_lcl = wl.kind == "lcl"
    op = ("one compute_lcl call" if is_lcl
          else f"one run_coverage_study call of {wl.reps} replication(s)")
    print(f"op = {op}; {details['ops']} ops in {details['timed_wall_s']:.3f} s")
    # on lcl-* the op metrics are the LCL metrics; the JSON line keeps the op_* names
    alias = ({"op_ms_p50": "lcl_ms_p50", "op_ms_p90": "lcl_ms_p90", "ops_per_s": "lcls_per_s"}
             if is_lcl else {})
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"median of {len(details['setup_samples_s'])} fresh-process set-ups"),
        ("op_ms_p50", metrics["op_ms_p50"], "ms", ""),
        ("op_ms_p90", metrics["op_ms_p90"], "ms",
         f"{details['ops']} samples, {details['samples_above_p90']} above"),
        ("ops_per_s", metrics["ops_per_s"], "1/s",
         f"median over {details['rate_windows']} windows of >= {RATE_WINDOW_S:g} s"),
    ]
    if not is_lcl:
        rows.append(("study_reps_per_s", details["units_per_op"] * metrics["ops_per_s"], "1/s",
                     f"{details['units_per_op']:g} replications per op"))
    rows += [
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "this process"),
        ("failed_frac", details["failed_frac"], "ratio",
         f"{tally.failed}/{tally.attempted} LCLs"),
        ("ref_mismatch", details["ref_mismatch"], "count",
         f"against {REFERENCE_FILE.name} at seed {workloads.REFERENCE_SEED}"),
    ]
    for name, value, unit, note in rows:
        if name in alias:
            name, note = alias[name], f"(= {name}) {note}"
        print(f"  {name:<18}{value:>14.6g} {unit:<6} {note}")


def print_traced(args, wl, metrics, details) -> None:
    header(args, wl)
    per = "LCL" if wl.kind == "lcl" else "replication"
    print(f"per-layer metrics per {per}; {details['items']} {per}s in {details['ops']} ops, "
          f"{details['replayed_calls']} bootstrap calls replayed")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<44}{metrics[name]:>16.6g} {unit}")
    print(f"spans: {details['spans_file']}")
