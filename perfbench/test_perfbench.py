"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The smoke runs call run.py with the same arguments as a full run, at tiny
B, C and replication counts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import workloads  # noqa: E402
from replay import same_bits  # noqa: E402
from spans import Tracer, patched, self_seconds, summarize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_printed_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        measure.PER_LAYER_UNITS.items())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = run("--workload", workload, "--seed", "11", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_work_counters_repeat_exactly_across_seeds():
    counters = ("resampling.gen_aux_batch.draws", "resampling.transform_w.elems",
                "distributions.sf.elems", "structures.eval_reliability.elems",
                "simulation.lcl_curve.points", "kernel.layer2.bytes_computed")
    seen = []
    for seed in ("1", "2"):
        done = run("--workload", "study-bendback", "--seed", seed, "--seconds", "0.5",
                   "--trace", "1", "--smoke")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        seen.append({name: metrics[name]["value"] for name in counters})
    assert seen[0] == seen[1]
    assert all(value > 0 for value in seen[0].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", "lcl-dbpt", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", elems=3):
            sum(range(10000))
        with tracer.span("inner", elems=4):
            sum(range(10000))
    own = self_seconds(tracer.spans)
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert own[outer.id] == pytest.approx(outer.seconds - sum(s.seconds for s in inner))
    assert all(s.parent == outer.id for s in inner)
    assert summarize(tracer.spans)["inner"]["counts"] == {"elems": 7}


def test_a_stray_exception_counts_as_failed_ops_not_a_crash():
    sizes = workloads.SMOKE
    wl = workloads.make("study-censored", sizes, nproc=2)
    wl.setup(1)
    op = wl.round(1)[0]
    log = measure.FailureLog()

    def broken(*args, **kwargs):
        raise ValueError("stray")

    from relbound import simulation

    with patched(measure.failure_taps(log) + [(simulation, "impute", broken)]):
        out = measure.call_op(wl, op, log)
    tally = measure.Tally()
    tally.add(wl, op, out)
    assert isinstance(out, ValueError)
    assert tally.failed == tally.attempted == sizes.censored_reps * 4
    assert log.by_type["ValueError"]["count"] == 1
    assert log.by_type["ValueError"]["first_message"] == "stray"


def test_same_bits_tells_signed_zeros_apart():
    assert same_bits(0.25, 0.25)
    assert not same_bits(0.0, -0.0)
    assert not same_bits(1.0, 1.0 + 2**-52)


def test_result_file_records_the_environment():
    done = run("--workload", "study-censored", "--seed", "5", "--seconds", "0.5", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((HERE / "out" / "study-censored-seed5-trace0-smoke.json").read_text())
    env = record["environment"]
    assert set(env) == {"nproc", "cpu_model", "python", "numpy", "scipy",
                        "blas_vendor", "blas_threads", "pool_threads"}
    assert env["blas_threads"] == 1
    assert env["pool_threads"] == min(2, env["nproc"])
