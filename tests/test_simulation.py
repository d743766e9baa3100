import json
import math

import numpy as np
import pytest

from relbound.distributions import (
    EXPONENTIAL,
    WEIBULL,
    ComponentModel,
    component_reliability,
    sample_lifetimes,
)
from relbound.errors import ConfigError
from relbound.simulation import (
    StudyConfig,
    compute_lcl,
    default_t_grid,
    detect_bend_back,
    falling_outside_count,
    lcl_curve,
    lcl_quantile,
    run_coverage_study,
    runtime_scaling_probe,
    solve_identical_components,
)
from relbound.structures import eval_reliability, parse_structure


def small_config(**overrides):
    base = dict(
        structure="series(c1,c2)",
        t=1.0,
        n_values=(8,),
        methods=("bp", "dbpt"),
        family="exponential",
        target_reliability=0.9,
        alpha=0.1,
        B=50,
        C=20,
        replications=20,
        seed=7,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestConfig:
    def test_from_dict_roundtrip(self):
        raw = {
            "structure": "series(c1,c2,c3)",
            "t": 1.0,
            "n": [5, 10],
            "methods": ["bp", "dbpt"],
            "family": "weibull",
            "target_reliability": 0.9548,
            "B": 100,
            "C": 50,
            "replications": 3,
            "seed": 1,
        }
        config = StudyConfig.from_dict(raw)
        assert config.n_values == (5, 10)
        echo = config.to_dict()
        assert echo["structure"] == raw["structure"]
        assert echo["bend_back"]["enabled"] is False

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"structure": "series(c1)", "t": 1, "n": [5],
                                   "methods": ["bp"], "family": "weibull",
                                   "target_reliability": 0.9, "reps": 10})

    def test_needs_components_xor_target(self):
        with pytest.raises(ValueError):
            small_config(components=({"family": "exponential", "rate": 1.0},) * 2)

    def test_b_below_inverse_alpha_rejected(self):
        with pytest.raises(ValueError, match="ceil"):
            small_config(B=5)
        small_config(B=5, methods=("delta",))  # B is not used by delta

    def test_c_below_one_rejected_for_double_bootstraps(self):
        for method in ("dbpt", "dbp"):
            with pytest.raises(ValueError, match="C must be"):
                small_config(C=0, methods=("bp", method))
        small_config(C=0, methods=("bp", "bb"))

    def test_alpha_above_half_rejected_for_delta(self):
        for method in ("delta", "delta-standard"):
            with pytest.raises(ValueError, match="0.5"):
                small_config(alpha=0.6, methods=("bp", method))
        small_config(alpha=0.6, methods=("bp",))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_config(methods=("bp", "wcf"))


class TestSolve:
    def test_series_weibull_hits_target(self):
        node = parse_structure("series(c1,c2,c3)")
        models, r_star = solve_identical_components(node, WEIBULL, 0.9548, 1.0)
        assert r_star == pytest.approx(0.9548 ** (1 / 3), rel=1e-12)
        achieved = eval_reliability(node, [component_reliability(m, 1.0) for m in models])
        assert achieved == pytest.approx(0.9548, abs=1e-12)

    def test_parallel_exponential(self):
        node = parse_structure("parallel(c1,c2,c3)")
        models, r_star = solve_identical_components(node, EXPONENTIAL, 0.9988, 2.0)
        assert models[0].rate == pytest.approx(-math.log(r_star) / 2.0, rel=1e-12)
        achieved = eval_reliability(node, [component_reliability(m, 2.0) for m in models])
        assert achieved == pytest.approx(0.9988, abs=1e-12)


class TestAggregates:
    def test_lcl_quantile_tenths(self):
        assert lcl_quantile(np.arange(0.1, 1.01, 0.1), 0.9) == pytest.approx(0.9)

    def test_falling_outside(self):
        assert falling_outside_count([0.2, 0.8, 1.0, 0.0]) == 0
        assert falling_outside_count([-0.1, 0.5, 1.2]) == 2
        with pytest.raises(ValueError):
            falling_outside_count([])


class TestCoverageStudy:
    def test_single_replication_coverage_binary(self):
        report = run_coverage_study(small_config(replications=1))
        for cell in report.cells:
            assert cell.coverage in (0.0, 1.0)
            assert cell.replications == 1

    def test_report_shape_and_counts(self):
        config = small_config(replications=10, methods=("bp", "bb", "delta"))
        report = run_coverage_study(config)
        assert {c.method for c in report.cells} == {"bp", "bb", "delta"}
        for cell in report.cells:
            assert cell.failures + int(round((cell.coverage or 0) * 0)) <= 10
            assert cell.fell_outside <= 10
        as_json = report.to_json_dict()
        assert "results" in as_json and len(as_json["results"]) == 3
        # timing never enters the JSON payload
        assert "median_ms" not in json.dumps(as_json)

    def test_csv_columns(self):
        report = run_coverage_study(small_config(replications=5))
        header = report.csv_text().splitlines()[0]
        assert header == ("method,n,coverage,coverage_se,q90_lcl,"
                          "fell_outside,bend_back,failures,median_ms")

    def test_deterministic_across_thread_counts(self):
        config_serial = small_config(replications=16, threads=1)
        config_pool = small_config(replications=16, threads=8)
        a = run_coverage_study(config_serial)
        b = run_coverage_study(config_pool)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.coverage == cb.coverage
            assert ca.q_lcl == cb.q_lcl
            assert ca.fell_outside == cb.fell_outside

    def test_failures_recorded_not_fatal(self):
        # n = 1 makes the two-parameter moment fit impossible in every replication
        config = small_config(family="lognormal", target_reliability=0.9,
                              n_values=(1,), replications=4)
        report = run_coverage_study(config)
        for cell in report.cells:
            assert cell.failures == 4
            assert cell.coverage is None

    def test_censored_study_runs(self):
        config = small_config(
            structure="parallel(c1,c2)", family="weibull", target_reliability=0.99,
            n_values=(12,), replications=6, censoring_fraction=0.3,
        )
        report = run_coverage_study(config)
        for cell in report.cells:
            assert cell.failures == 0

    def test_reimpute_in_resamples_changes_the_oracle(self):
        base = dict(
            structure="series(c1,c2)", family="weibull", target_reliability=0.95,
            n_values=(10,), methods=("dbp",), replications=3, t=1.0,
            alpha=0.1, B=20, C=10, seed=5, censoring_fraction=0.3,
        )
        plain = run_coverage_study(StudyConfig(**base))
        recensored = run_coverage_study(StudyConfig(**base, reimpute_in_resamples=True))
        assert plain.cells[0].failures == recensored.cells[0].failures == 0
        assert plain.cells[0].q_lcl != recensored.cells[0].q_lcl


class TestCurvesAndBendBack:
    def _dataset(self, seed=0, n=8):
        models = [ComponentModel(WEIBULL, mu=2.0, sigma=1.0)] * 2
        rng = np.random.default_rng(seed)
        return [sample_lifetimes(m, n, rng) for m in models]

    def test_grid_validation(self):
        node = parse_structure("series(c1,c2)")
        data = self._dataset()
        with pytest.raises(ValueError):
            detect_bend_back("bp", node, [WEIBULL] * 2, data, [1.0], seed=1)
        with pytest.raises(ValueError):
            detect_bend_back("bp", node, [WEIBULL] * 2, data, [2.0, 1.0], seed=1)

    def test_bp_curve_monotone_and_bounded(self):
        node = parse_structure("series(c1,c2)")
        grid = default_t_grid(2.0, 40)
        for seed in range(5):
            data = self._dataset(seed)
            curve = lcl_curve("bp", node, [WEIBULL] * 2, data, grid, 0.1, 400, 0, seed=seed)
            assert np.all(curve[1:] <= curve[:-1] + 1e-12)
            assert np.all((curve >= 0) & (curve <= 1))
            assert detect_bend_back("bp", node, [WEIBULL] * 2, data, grid,
                                    0.1, 400, 0, seed=seed) == 0

    def test_constant_curve_counts_zero(self):
        # delta on a zero-variance-direction grid: tiny grid around one point
        node = parse_structure("series(c1,c2)")
        data = self._dataset(3)
        grid = np.array([1.0, 1.0 + 1e-9])
        violations = detect_bend_back("delta", node, [WEIBULL] * 2, data, grid, seed=0)
        assert violations == 0

    @pytest.mark.parametrize("method", ["bp", "bb", "dbpt", "dbp", "delta"])
    def test_curve_raises_what_the_scalar_raises(self, method):
        node = parse_structure("series(c1,c2)")
        data = self._dataset(4)
        grid = default_t_grid(1.0, 4)

        def outcome(fn):
            try:
                fn()
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        bad_inputs = {"alpha=0": {"alpha": 0.0}, "alpha=1.5": {"alpha": 1.5},
                      "alpha=0.6": {"alpha": 0.6}, "B=3": {"B": 3}, "C=0": {"C": 0},
                      "one family": {"families": [WEIBULL]}}
        rejected = {"alpha=0", "alpha=1.5", "one family"}
        rejected |= {"alpha=0.6"} if method == "delta" else {"B=3"}
        rejected |= {"C=0"} if method in ("dbpt", "dbp") else set()
        for name, bad in bad_inputs.items():
            a = {"families": [WEIBULL] * 2, "alpha": 0.1, "B": 50, "C": 10, **bad}
            scalar = outcome(lambda: compute_lcl(method, node, a["families"], data, 1.0,
                                                 a["alpha"], a["B"], a["C"], 3))
            curve = outcome(lambda: lcl_curve(method, node, a["families"], data, grid,
                                              a["alpha"], a["B"], a["C"], 3))
            assert curve == scalar, name
            assert (scalar is not None) == (name in rejected), name

    def test_bb_and_dbp_curves_run(self):
        node = parse_structure("series(c1,c2)")
        data = self._dataset(5)
        grid = default_t_grid(1.0, 5)
        for method in ("bb", "dbp"):
            curve = lcl_curve(method, node, [WEIBULL] * 2, data, grid, 0.1, 50, 10, seed=2)
            assert curve.shape == (5,)


class TestRuntimeProbe:
    def test_probe_reports_scaling(self):
        config = StudyConfig(
            structure="series(c1,c2)", t=1.0, n_values=(10, 100),
            methods=("dbpt", "dbp"), family="lognormal", target_reliability=0.9,
            B=50, C=50, replications=1, seed=1,
        )
        probe = runtime_scaling_probe(config, repeats=2)
        assert probe["n"] == [10, 100]
        assert len(probe["dbpt_median_ms"]) == 2
        assert probe["speedup_at_max_n"] > 1.0

    def test_needs_two_sizes(self):
        config = StudyConfig(
            structure="series(c1,c2)", t=1.0, n_values=(10,),
            methods=("dbpt",), family="lognormal", target_reliability=0.9,
            B=20, C=10, replications=1, seed=1,
        )
        with pytest.raises(ValueError):
            runtime_scaling_probe(config)

    def test_nine_of_sixteen_speedup(self):
        # the transformed-resample path must beat nested resampling by a wide
        # margin on a 16-component system with n = 100
        config = StudyConfig(
            structure="koutofn(9; c1,...,c16)", t=1.0, n_values=(10, 100),
            methods=("dbpt", "dbp"), family="lognormal", target_reliability=0.99,
            B=200, C=100, replications=1, seed=5,
        )
        probe = runtime_scaling_probe(config, repeats=2)
        assert probe["speedup_at_max_n"] >= 20.0
