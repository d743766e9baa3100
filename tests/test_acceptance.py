"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy statistical checks run multithreaded; the full module takes on the
order of 15 minutes on 8 cores.  Run with ``pytest tests/test_acceptance.py
-v -s`` to watch the per-criterion lines as they complete.

Criterion 6's DBPT bend-back clause is known-red: the rank recalibration of
the transformed double bootstrap drifts across any time grid at n = 5, so
the dataset-level bend-back rate sits far above the required 1% at the
mandated 1e-12 violation tolerance (see the repository notes for the
quantified analysis).  The clause is asserted as specified rather than
weakened.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from scipy.stats import ks_2samp

import relbound as rb
from relbound.bootstrap import dbp_lcl_oracle, dbpt_lcl
from relbound.resampling import gen_aux_batch, transform_scale
from relbound.rng import child_seedseq, generator
from relbound.simulation import StudyConfig, default_t_grid, lcl_curve, run_coverage_study, runtime_scaling_probe

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
THREADS = min(8, os.cpu_count() or 1)


def report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def load_config(name, **overrides):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.update(overrides)
    raw["threads"] = THREADS
    return StudyConfig.from_dict(raw)


def test_01_structure_oracle_equivalence():
    """1000 random trees with s <= 12: recursive eval equals enumeration, < 10 s."""
    from conftest import random_tree

    rng = np.random.default_rng(20250801)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(1, 13))
        node = random_tree(rng, s)
        r = rng.uniform(0.0, 1.0, s)
        fast = rb.eval_reliability(node, r)
        slow = rb.eval_reliability_bruteforce(node, r)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, ok, f"1000 trees, max |eval - brute| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def _transform_draws(family, r, n, size, seed):
    zb, m = gen_aux_batch(family, n, size, generator(seed))
    v = np.log(r) if family is rb.EXPONENTIAL else family.isf(r)
    return family.reliability(transform_scale(family, v, zb, m))


def _reestimation_draws(family, r, n, size, seed):
    """Fresh datasets from a model with reliability r at its mission time."""
    rng = generator(seed)
    if family is rb.EXPONENTIAL:
        model = rb.ComponentModel(family, rate=1.0)
        t = rb.time_at_reliability(model, r)
        x = rng.standard_exponential((size, n))
        return np.exp(-(n / x.sum(axis=1)) * t)
    model = rb.ComponentModel(family, mu=0.3, sigma=0.7)
    t = rb.time_at_reliability(model, r)
    draws = np.exp(model.mu + model.sigma * family.sample_standardized((size, n), rng))
    logs = np.log(draws)
    sigma = logs.std(axis=1, ddof=1) / family.kappa2
    mu = logs.mean(axis=1) - family.kappa1 * sigma
    return np.asarray(family.sf((np.log(t) - mu) / sigma))


def test_02_transform_law_equivalence():
    """Transform draws match re-estimation draws: 12 cells, KS at level 1e-3."""
    size = 100_000
    failures = []
    slowest = 0.0
    for fi, family in enumerate((rb.WEIBULL, rb.LOGNORMAL, rb.EXPONENTIAL)):
        for ni, n in enumerate((5, 20)):
            for ri, r in enumerate((0.5, 0.95)):
                start = time.perf_counter()
                a = _transform_draws(family, r, n, size, 1000 + 100 * fi + 10 * ni + ri)
                b = _reestimation_draws(family, r, n, size, 2000 + 100 * fi + 10 * ni + ri)
                p = ks_2samp(a, b).pvalue
                slowest = max(slowest, time.perf_counter() - start)
                if p <= 1e-3:
                    failures.append((family.name, n, r, p))
    ok = not failures and slowest < 120.0
    report(2, ok, f"12 cells KS > 1e-3, worst cell {slowest:.1f}s"
                  + (f", rejections: {failures}" if failures else ""))
    assert not failures
    assert slowest < 120.0


def test_03_parameter_invariance():
    """Different (mu, sigma) with equal r(t) leave the estimator law unchanged."""
    size, n, r = 100_000, 10, 0.8

    def draws(mu, sigma, seed):
        model = rb.ComponentModel(rb.WEIBULL, mu=mu, sigma=sigma)
        t = rb.time_at_reliability(model, r)
        rng = generator(seed)
        x = np.exp(mu + sigma * rb.WEIBULL.sample_standardized((size, n), rng))
        logs = np.log(x)
        sig = logs.std(axis=1, ddof=1) / rb.WEIBULL.kappa2
        loc = logs.mean(axis=1) - rb.WEIBULL.kappa1 * sig
        return np.asarray(rb.WEIBULL.sf((np.log(t) - loc) / sig))

    a = draws(0.3, 0.7, 31)
    b = draws(-1.2, 2.1, 32)
    transform = _transform_draws(rb.WEIBULL, r, n, size, 33)
    p_models = ks_2samp(a, b).pvalue
    p_transform = ks_2samp(transform, a).pvalue
    ok = p_models > 1e-3 and p_transform > 1e-3
    report(3, ok, f"KS models p = {p_models:.3f}, KS transform-vs-model p = {p_transform:.3f}")
    assert p_models > 1e-3
    assert p_transform > 1e-3


def test_04_bp_monotonicity_and_bounds():
    """BP curves under common random numbers: non-increasing and inside [0, 1]."""
    node = rb.parse_structure("series(c1,c2,c3)")
    models, _ = rb.solve_identical_components(node, rb.WEIBULL, 0.9548, 1.0)
    grid = default_t_grid(1.0, 50)
    master = np.random.SeedSequence(20250804)
    violations = 0
    out_of_range = 0
    for rep in range(500):
        rs = child_seedseq(master, rep)
        n = int(5 + 3 * (rep % 4))
        data = [rb.sample_lifetimes(models[i], n, generator(rs, 0, i)) for i in range(3)]
        curve = lcl_curve("bp", node, [rb.WEIBULL] * 3, data, grid, 0.1, 1000, 0,
                          child_seedseq(rs, 1))
        violations += int(np.sum(curve[1:] > curve[:-1] + 1e-12))
        out_of_range += int(np.sum((curve < 0.0) | (curve > 1.0)))
    ok = violations == 0 and out_of_range == 0
    report(4, ok, f"500 datasets x 50-point grid: {violations} violations, "
                  f"{out_of_range} values outside [0,1]")
    assert violations == 0
    assert out_of_range == 0


def test_05_coverage_series_weibull():
    """Desk-scaled series study: DBPT within 0.90 +/- 0.03 and closer than BP."""
    config = load_config("fig3_series.json")
    start = time.perf_counter()
    result = run_coverage_study(config)
    elapsed = time.perf_counter() - start
    cov = {(c.method, c.n): c.coverage for c in result.cells}
    lines = []
    ok = True
    for n in config.n_values:
        dbpt, bp = cov[("dbpt", n)], cov[("bp", n)]
        in_band = abs(dbpt - 0.90) <= 0.03
        closer = abs(dbpt - 0.90) <= abs(bp - 0.90)
        ok = ok and in_band and closer
        lines.append(f"n={n}: dbpt {dbpt:.4f}, bp {bp:.4f}")
    report(5, ok, "; ".join(lines) + f" ({elapsed / 60:.1f} min, target < 30)")
    for n in config.n_values:
        assert abs(cov[("dbpt", n)] - 0.90) <= 0.03, f"dbpt coverage at n={n}"
        assert abs(cov[("dbpt", n)] - 0.90) <= abs(cov[("bp", n)] - 0.90), f"closer at n={n}"


def test_07_dbpt_agrees_with_nested_oracle():
    """Paired and distributional agreement with the conventional double bootstrap."""
    node = rb.parse_structure("series(c1,c2)")
    model = rb.ComponentModel(rb.EXPONENTIAL, rate=1.0)
    t = rb.time_at_reliability(model, 0.95)
    families = [rb.EXPONENTIAL] * 2
    master = np.random.SeedSequence(20250807)

    diffs = []
    for rep in range(200):
        rs = child_seedseq(master, 0, rep)
        data = [rb.sample_lifetimes(model, 10, generator(rs, 0, i)) for i in range(2)]
        a = dbpt_lcl(node, families, data, t, 0.1, 200, 100, child_seedseq(rs, 1))
        b = dbp_lcl_oracle(node, families, data, t, 0.1, 200, 100, child_seedseq(rs, 2))
        diffs.append(abs(a.lcl - b.lcl))
    mean_diff = float(np.mean(diffs))

    a_vals, b_vals = [], []
    for rep in range(500):
        rs = child_seedseq(master, 1, rep)
        data_a = [rb.sample_lifetimes(model, 10, generator(rs, 0, i)) for i in range(2)]
        data_b = [rb.sample_lifetimes(model, 10, generator(rs, 1, i)) for i in range(2)]
        a_vals.append(dbpt_lcl(node, families, data_a, t, 0.1, 200, 100,
                               child_seedseq(rs, 2)).lcl)
        b_vals.append(dbp_lcl_oracle(node, families, data_b, t, 0.1, 200, 100,
                                     child_seedseq(rs, 3)).lcl)
    p = ks_2samp(a_vals, b_vals).pvalue
    ok = mean_diff < 0.01 and p > 1e-3
    report(7, ok, f"mean |dbpt - dbp| = {mean_diff:.4f} (200 paired), KS p = {p:.3f} (500 each)")
    assert mean_diff < 0.01
    assert p > 1e-3


def test_08_runtime_scaling():
    """dbpt flat in n, the nested oracle linear, and >= 20x faster at n = 1000."""
    config = load_config("perf_probe.json")
    probe = runtime_scaling_probe(config, repeats=3)
    dbpt_slope = probe["dbpt_slope"]
    dbp_slope = probe["dbp_slope"]
    speedup = probe["speedup_at_max_n"]
    ok = abs(dbpt_slope) < 0.2 and 0.7 <= dbp_slope <= 1.3 and speedup >= 20.0
    report(8, ok, f"dbpt slope {dbpt_slope:+.3f}, dbp slope {dbp_slope:+.3f}, "
                  f"speedup at n=1000: {speedup:.0f}x")
    assert abs(dbpt_slope) < 0.2
    assert 0.7 <= dbp_slope <= 1.3
    assert speedup >= 20.0


def test_09_censored_pipeline_sanity():
    """Type-II censoring with imputation keeps DBPT coverage near nominal."""
    config = load_config("censored_parallel.json")
    result = run_coverage_study(config)
    cell = result.cells[0]
    ok = cell.failures == 0 and abs(cell.coverage - 0.90) <= 0.05
    report(9, ok, f"coverage {cell.coverage:.4f} (band 0.90 +/- 0.05), "
                  f"failures {cell.failures}/{config.replications}")
    assert cell.failures == 0
    assert abs(cell.coverage - 0.90) <= 0.05


def test_10_determinism_across_thread_counts(tmp_path):
    """Identical seed, thread counts 1 vs 8: byte-identical report.json."""
    import subprocess
    import sys

    raw = {
        "structure": "parallel(c1,series(c2,c3))",
        "t": 1.0,
        "n": [10],
        "methods": ["bp", "dbpt", "delta"],
        "family": "weibull",
        "target_reliability": 0.99,
        "alpha": 0.1,
        "B": 100,
        "C": 50,
        "replications": 30,
        "seed": 20250810,
        "censoring_fraction": 0.3,
        "bend_back": {"enabled": True, "points": 10},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    payloads = []
    for threads in (1, 8):
        out_dir = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "relbound.cli", "simulate", str(cfg),
             "--out", str(out_dir), "--threads", str(threads)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append((out_dir / "report.json").read_bytes())
    ok = payloads[0] == payloads[1]
    report(10, ok, f"report.json bytes equal across threads 1 vs 8: {ok} "
                   f"({len(payloads[0])} bytes)")
    assert payloads[0] == payloads[1]


# Criterion 6 is defined last so that it runs last: its 2000-replication
# bend-back study is most of the suite's time, and its clause is the known red.
def test_06_table1_diagnostics():
    """Desk-scaled summary-table diagnostics at n = 5.

    The DBPT bend-back clause (rate <= 1% at tolerance 1e-12) is known to be
    unattainable: the recalibrated percentile rank genuinely drifts with t,
    producing upward steps of order 1e-4 in 20-50% of datasets regardless of
    grid span.  It is asserted as written and expected to fail.
    """
    config = load_config("table1_desk.json")
    result = run_coverage_study(config)
    cells = {c.method: c for c in result.cells}
    reps = config.replications
    bp_fo, bp_bend = cells["bp"].fell_outside, cells["bp"].bend_back
    db_fo, db_bend = cells["dbpt"].fell_outside, cells["dbpt"].bend_back
    delta_rate = cells["delta"].fell_outside / reps
    clauses = {
        "bp fell_outside == 0": bp_fo == 0,
        "bp bend_back == 0": bp_bend == 0,
        "dbpt fell_outside == 0": db_fo == 0,
        "dbpt bend_back <= 1%": db_bend <= 0.01 * reps,
        "delta fell_outside >= 60%": delta_rate >= 0.60,
    }
    detail = (f"bp fo={bp_fo} bend={bp_bend}; dbpt fo={db_fo} bend={db_bend}/{reps}; "
              f"delta outside={delta_rate:.1%}")
    report(6, all(clauses.values()), detail + "".join(
        f"; VIOLATED: {name}" for name, good in clauses.items() if not good))
    for name, good in clauses.items():
        assert good, name
