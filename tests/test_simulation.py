import json
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from relbound import simulation
from relbound.distributions import (
    EXPONENTIAL,
    LOGNORMAL,
    WEIBULL,
    ComponentModel,
    Generic,
    component_reliability,
    sample_lifetimes,
)
from relbound.errors import ConfigError, RelboundError, StructureParseError
from relbound.results import LclResult
from relbound.simulation import (
    CoverageReport,
    LclRequest,
    MethodCell,
    StudyConfig,
    bend_back_violations,
    check_lcl_settings,
    compute_lcl,
    default_t_grid,
    lcl_curve,
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

    def test_unknown_impute_mode_rejected(self):
        with pytest.raises(ValueError, match="impute_mode"):
            small_config(impute_mode="bogus", censoring_fraction=0.3)

    def test_repeated_method_rejected(self):
        # one record per method and replication: a repeat would report one LCL twice
        with pytest.raises(ValueError, match="twice"):
            small_config(methods=("bp", "bp"))

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_mission_time_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="t must be"):
            small_config(t=t)

    @pytest.mark.parametrize("spec, problem", [
        ({"family": "weibull", "mu": 0.0}, "missing ['sigma']"),
        ({"family": "exponential", "rate": 1.0, "mu": 0.0}, "unexpected ['mu']"),
        ({"family": "lognormal", "mu": 0.0, "sigma": 1.0, "sigam": 1.0}, "unexpected ['sigam']"),
        ({"family": "gamma", "rate": 1.0}, "unknown family"),
        ({"rate": 1.0}, "unknown family"),
    ])
    def test_component_spec_checked_against_its_family(self, spec, problem):
        raw = {"structure": "series(c1,c2)", "t": 1.0, "n": [5], "methods": ["bp"],
               "components": [{"family": "exponential", "rate": 2.0}, spec]}
        with pytest.raises(ConfigError) as info:
            StudyConfig.from_dict(raw)
        assert problem in str(info.value)


    @pytest.mark.parametrize("key, value", [
        ("paper_literal_aux", "false"), ("bend_back", "no"), ("reimpute_in_resamples", 1),
        ("B", 999.7), ("C", "500"), ("replications", True), ("seed", math.nan),
        ("threads", 2.5), ("n", [5.9]), ("n", ["5"]),
        ("t", True), ("alpha", "0.2"), ("censoring_fraction", False),
    ])
    def test_flags_and_counts_are_checked_not_coerced(self, key, value):
        raw = {"structure": "series(c1)", "t": 1.0, "n": [5], "methods": ["bp", "dbpt"],
               "family": "weibull", "target_reliability": 0.9, key: value}
        with pytest.raises(ValueError, match="must be"):
            StudyConfig.from_dict(raw)

    def test_integral_floats_count_as_ints(self):
        config = small_config(B=1000.0, C=np.int64(500), n_values=(8.0,), bend_back=np.bool_(True))
        assert (config.B, config.C, config.n_values, config.bend_back) == (1000, 500, (8,), True)
        assert type(config.B) is int and type(config.bend_back) is bool

    def test_structure_parsed_when_built(self):
        with pytest.raises(StructureParseError):
            small_config(structure="series(c1,")

    def test_target_family_resolved_when_built(self):
        with pytest.raises(ValueError, match="unknown family"):
            small_config(family="gamma")

    @pytest.mark.parametrize("family", [5, ["weibull"]])
    def test_target_family_must_be_a_name(self, family):
        with pytest.raises(ValueError, match="unknown family"):
            small_config(family=family)

    @pytest.mark.parametrize("params", [{"mu": True, "sigma": 1.5}, {"mu": 0, "sigma": "1.5"}])
    def test_component_parameters_are_checked_not_coerced(self, params):
        raw = {"structure": "series(c1)", "t": 1.0, "n": [5], "methods": ["bp"],
               "components": [{"family": "weibull", **params}]}
        with pytest.raises(ValueError, match="must be a number"):
            StudyConfig.from_dict(raw)
        # an accepted value is echoed as given
        accepted = {"family": "weibull", "mu": 0, "sigma": 1.5}
        echo = StudyConfig.from_dict({**raw, "components": [accepted]}).to_dict()
        assert json.dumps(echo["components"]) == json.dumps([accepted])

    def test_component_count_checked_when_built(self):
        with pytest.raises(ConfigError, match="references 2 components"):
            small_config(family=None, target_reliability=None,
                         components=({"family": "exponential", "rate": 1.0},))

    @pytest.mark.parametrize("decades", [0.0, -1.0, math.nan, 1e3])
    def test_bend_back_grid_checked_when_built(self, decades):
        # the grid check of lcl_curve refuses a grid that is flat, decreasing,
        # NaN or past the float range, with no overflow warning on the way
        raw = {**small_config().to_dict(), "bend_back": {"points": 5, "decades": decades}}
        for build in (lambda: small_config(bend_back=True, bend_back_points=5,
                                           bend_back_decades=decades),
                      lambda: StudyConfig.from_dict(raw)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="bend-back grid of .* decades: "
                                                     "(t_grid|mission time)"):
                    build()
        # without the scan the grid is never built
        assert small_config(bend_back_decades=decades).bend_back is False


@pytest.mark.parametrize("family", [WEIBULL, LOGNORMAL, EXPONENTIAL,
                                    Generic(cdf=ndtr, quantile=ndtri, kappa1=0.0, kappa2=1.0,
                                            sample=lambda shape, rng: rng.standard_normal(shape))],
                         ids=["weibull", "lognormal", "exponential", "generic"])
def test_component_entry_takes_the_family_params(monkeypatch, family):
    monkeypatch.setattr(simulation, "family_from_name", lambda name: family)
    values = {name: 0.5 + i for i, name in enumerate(family.params)}
    model = simulation._component_model({"family": family.name, **values})
    assert model.params == values
    for name in family.params:
        with pytest.raises(ConfigError, match=f"missing \\['{name}'\\]"):
            simulation._component_model({"family": family.name,
                                         **{k: v for k, v in values.items() if k != name}})


STUDY_CONFIGS = sorted(p for p in (Path(__file__).parent.parent / "configs").glob("*.json")
                       if "methods" in json.loads(p.read_text()))


def request_dict(**overrides):
    return {"structure": "parallel(c1,c2)",
            "components": [{"id": "c2", "family": "exponential", "data_file": "c2.csv"},
                           {"id": "c1", "family": "weibull", "times": [1.0, 2.0, 3.0]}],
            "t": 1.0, **overrides}


class TestLclRequest:
    def test_keys_are_the_fields_with_their_defaults(self):
        request = LclRequest.from_dict(request_dict())
        assert [f.name for f in fields(LclRequest)] == [
            "structure", "components", "t", "alpha", "method", "B", "C", "seed"]
        assert (request.alpha, request.method, request.B, request.C, request.seed) == (
            0.1, "dbpt", 1000, 500, 0)
        assert [spec["id"] for spec in request.components] == ["c1", "c2"]
        assert [spec["family"] for spec in request.components] == ["weibull", "exponential"]
        assert LclRequest(**request_dict()) == request

    @pytest.mark.parametrize("raw, error", [
        ([], ConfigError), (request_dict(reps=3), ConfigError),
        ({"structure": "series(c1)", "components": []}, ConfigError),
        (request_dict(structure="series(c1,"), StructureParseError),
        (request_dict(structure="series(c1)"), ConfigError),
        (request_dict(components=[{"id": "c1", "family": "gamma", "times": [1.0]},
                                  {"id": "c2", "family": "weibull", "times": [1.0]}]),
         ConfigError),
        (request_dict(components=[{"id": "c1", "family": "weibull"},
                                  {"id": "c2", "family": "weibull", "times": [1.0]}]),
         ConfigError),
        (request_dict(components=[{"id": "c1", "family": "weibull", "times": [1.0]}] * 2),
         ConfigError),
        (request_dict(B=20.7), ValueError), (request_dict(seed="7"), ValueError),
        (request_dict(B=True), ValueError), (request_dict(method="wcf"), ValueError),
        (request_dict(t=True), ValueError), (request_dict(alpha="0.2"), ValueError),
        (request_dict(components=[{"id": "c1", "family": "weibull", "times": [1.0, 2.0],
                                   "censord": [0, 1]},
                                  {"id": "c2", "family": "weibull", "times": [1.0]}]),
         ConfigError),
    ], ids=["not-an-object", "unknown-key", "missing-t", "bad-structure", "count",
            "unknown-family", "no-data", "repeated-id", "B-fraction", "seed-string",
            "B-flag", "unknown-method", "t-flag", "alpha-string", "unknown-entry-key"])
    def test_refused_when_built(self, raw, error):
        with pytest.raises(error):
            LclRequest.from_dict(raw)

    def test_replace_passes_the_same_checks(self):
        request = LclRequest.from_dict(request_dict(method="bp", B=50))
        assert replace(request, B=40.0).B == 40
        for bad in ({"B": 20.7}, {"B": 5}, {"alpha": 0.6, "method": "delta"}, {"t": math.inf}):
            with pytest.raises(ValueError):
                replace(request, **bad)

    @pytest.mark.parametrize("method, bad", [
        ("bp", {"alpha": 0.0}), ("bb", {"B": 5}), ("dbpt", {"C": 0}), ("dbp", {"alpha": 1.5}),
        ("delta", {"alpha": 0.6}), ("delta-standard", {"t": math.nan}), ("bp", {"t": -1.0}),
    ])
    def test_records_refuse_with_the_error_of_the_lcl_call(self, method, bad):
        settings = {"t": 1.0, "alpha": 0.1, "B": 50, "C": 10, **bad}
        node = parse_structure("series(c1,c2)")
        data = [sample_lifetimes(ComponentModel(WEIBULL, mu=0.0, sigma=1.0), 6, i) for i in (1, 2)]
        errors = []
        for build in (
                lambda: compute_lcl(method, node, [WEIBULL] * 2, data, settings["t"],
                                    settings["alpha"], settings["B"], settings["C"], 1),
                lambda: small_config(methods=(method,), **settings),
                lambda: LclRequest.from_dict(request_dict(method=method, **settings))):
            with pytest.raises(ValueError) as info:
                build()
            errors.append(str(info.value))
        assert len(set(errors)) == 1, errors


class TestDerivedSchema:
    @pytest.mark.parametrize("path", STUDY_CONFIGS, ids=lambda p: p.name)
    def test_echo_round_trips(self, path):
        config = StudyConfig.from_dict(json.loads(path.read_text()))
        assert StudyConfig.from_dict(config.to_dict()) == config

    def test_constructor_normalises_like_from_dict(self):
        raw = {"structure": "series(c1,c2)", "t": 2, "n": [5, 10], "methods": ["bp", "dbpt"],
               "components": [{"family": "weibull", "mu": 1, "sigma": 2},
                              {"family": "exponential", "rate": 1}],
               "alpha": 0.2, "B": 40.0, "C": 20, "bend_back": {"points": 5}}
        kwargs = {"n_values" if key == "n" else key: value
                  for key, value in raw.items() if key != "bend_back"}
        direct = StudyConfig(**kwargs, bend_back=True, bend_back_points=5)
        assert direct == StudyConfig.from_dict(raw)
        assert direct.n_values == (5, 10) and direct.methods == ("bp", "dbpt")
        assert isinstance(direct.components, tuple) and isinstance(direct.B, int)

    def test_echo_carries_every_field(self):
        # every field away from its default: a field the echo dropped would
        # come back as its default and break the round trip
        changed = dict(structure="parallel(c1,c2)", t=2.5, n_values=(4, 6),
                       methods=("dbp", "delta"), family="lognormal", alpha=0.2, B=30,
                       C=7, replications=3, seed=9, lcl_quantile=0.8,
                       censoring_fraction=0.25, impute_mode="quantile", bend_back=True,
                       bend_back_points=7, bend_back_decades=0.5, paper_literal_aux=True,
                       reimpute_in_resamples=True, threads=2)
        components = ({"family": "exponential", "rate": 0.5},) * 2
        configs = [StudyConfig(**changed, components=components),
                   StudyConfig(**changed, target_reliability=0.9)]
        moved = {f.name for c in configs for f in fields(StudyConfig)
                 if getattr(c, f.name) != f.default}
        assert moved == {f.name for f in fields(StudyConfig)}
        for config in configs:
            echo = config.to_dict()
            assert echo["n"] == [4, 6]
            assert echo["bend_back"] == {"enabled": True, "points": 7, "decades": 0.5}
            assert StudyConfig.from_dict(echo) == config


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

    def test_unreachable_target_refused_when_built(self):
        # identical components in 1e-15..1-1e-15 give series(c1,c2) 1e-30 at least
        with pytest.raises(ValueError, match="target reliability 1e-300 is out of reach"):
            small_config(target_reliability=1e-300)


class TestAggregates:
    def test_cell_counts_each_result_that_fell_outside(self):
        # a NaN raw value lies in no interval, so it fell outside [0, 1]
        raws = [0.2, 0.8, 1.0, 0.0, -0.1, 1.2, math.nan]
        runs = [(LclResult(method="bb", raw_value=raw, r_hat=0.9, t=1.0, alpha=0.1,
                           percentile=False), 1.0, None) for raw in raws]
        cell = simulation._method_cell(small_config(), "bb", 8, runs + ["EstimationError: x"],
                                       0.9)
        assert (cell.fell_outside, cell.failures, cell.replications) == (3, 1, 8)


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

    @pytest.mark.parametrize("q,column", [(0.5, "q50_lcl"), (0.975, "q97.5_lcl")])
    def test_csv_quantile_column_names_the_lcl_quantile(self, q, column):
        report = run_coverage_study(small_config(replications=5, lcl_quantile=q))
        assert report.csv_text().splitlines()[0].split(",")[4] == column
        assert report.to_json_dict()["config"]["lcl_quantile"] == q

    def test_csv_and_summary_rows(self):
        # a bend-back cell, a cell outside [0, 1] and a cell whose every replication failed
        cells = (
            MethodCell(method="dbpt", n=5, replications=4, failures=1, coverage=2 / 3,
                       coverage_se=0.2721655269759087, q_lcl=0.91234567891234, fell_outside=0,
                       bend_back=1, boundary_hits=2, median_ms=15.4567),
            MethodCell(method="delta-standard", n=5, replications=4, failures=0, coverage=0.5,
                       coverage_se=0.25, q_lcl=1.0123456789, fell_outside=2, bend_back=0,
                       boundary_hits=0, median_ms=0.25),
            MethodCell(method="bp", n=10, replications=4, failures=4, coverage=None,
                       coverage_se=None, q_lcl=None, fell_outside=0, bend_back=None,
                       boundary_hits=0, median_ms=None),
        )
        report = CoverageReport(config={"lcl_quantile": 0.9}, solved_components=None,
                                true_reliability=0.9548, cells=cells)
        assert report.csv_text() == (
            "method,n,coverage,coverage_se,q90_lcl,fell_outside,bend_back,failures,median_ms\n"
            "dbpt,5,0.666667,0.272166,0.9123456789,0,1,1,15.457\n"
            "delta-standard,5,0.500000,0.250000,1.012345679,2,0,0,0.250\n"
            "bp,10,,,,0,,4,\n")
        assert report.summary_lines() == [
            "true reliability R = 0.954800",
            "method               n  coverage      se     q_lcl  outside  bend  fail   med_ms",
            "dbpt                 5    0.6667  0.2722    0.9123        0     1     1     15.5",
            "delta-standard       5    0.5000  0.2500    1.0123        2     0     0      0.2",
            "bp                  10         -       -         -        0     -     4        -",
        ]

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

    @pytest.mark.filterwarnings("ignore")  # the pdf below overflows to NaN
    def test_non_finite_delta_error_fails_each_replication(self, monkeypatch):
        # exp(-x) overflows at the standardized log time of t = 1e-200, so the
        # delta standard error is NaN there
        logistic = Generic(cdf=lambda x: 1.0 / (1.0 + np.exp(-x)),
                           quantile=lambda p: np.log(p / (1.0 - p)),
                           sample=lambda shape, rng: rng.logistic(size=shape),
                           pdf=lambda x: np.exp(-x) / (1.0 + np.exp(-x)) ** 2,
                           kappa1=0.0, kappa2=math.pi / math.sqrt(3.0), name="logistic")
        monkeypatch.setattr(simulation, "family_from_name", lambda name: logistic)
        config = small_config(family=None, target_reliability=None, t=1e-200, n_values=(20,),
                              replications=3, methods=("delta", "delta-standard"),
                              components=({"family": "logistic", "mu": 0.0, "sigma": 0.3},) * 2)
        report = run_coverage_study(config)
        assert [(c.method, c.failures, c.coverage) for c in report.cells] == [
            ("delta", 3, None), ("delta-standard", 3, None)]

    def test_failed_imputation_fails_each_method_not_the_study(self):
        # 90% censoring of n = 5 leaves one observed failure, too few to impute
        # (bootstrap methods) or to fit the censored MLE (delta methods)
        config = small_config(family="weibull", n_values=(5,), replications=3,
                              censoring_fraction=0.9, methods=("bp", "dbpt", "delta"))
        report = run_coverage_study(config)
        assert [(c.method, c.failures, c.coverage) for c in report.cells] == [
            ("bp", 3, None), ("dbpt", 3, None), ("delta", 3, None)]

    def test_refused_draw_fails_every_method_not_the_study(self):
        # a rate of 1e-320 draws every time as inf, which no fit accepts
        config = small_config(family=None, target_reliability=None, n_values=(5,),
                              replications=2, censoring_fraction=0.3, methods=("bp", "delta"),
                              components=({"family": "exponential", "rate": 1.0},
                                          {"family": "exponential", "rate": 1e-320}))
        with np.errstate(over="ignore"):
            report = run_coverage_study(config)
            runs = simulation._one_replication(simulation._study_setup(config), config, 0, 5, 0)
        assert [(c.method, c.failures, c.coverage) for c in report.cells] == [
            ("bp", 2, None), ("delta", 2, None)]
        assert set(runs.values()) == {"EstimationError: sampled dataset refused: "
                                      "failure times must be finite and > 0"}

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
            bend_back_violations(lcl_curve("bp", node, [WEIBULL] * 2, data, [1.0], seed=1))
        with pytest.raises(ValueError):
            bend_back_violations(lcl_curve("bp", node, [WEIBULL] * 2, data, [2.0, 1.0], seed=1))

    def test_bp_curve_monotone_and_bounded(self):
        node = parse_structure("series(c1,c2)")
        grid = default_t_grid(2.0, 40)
        for seed in range(5):
            data = self._dataset(seed)
            curve = lcl_curve("bp", node, [WEIBULL] * 2, data, grid, 0.1, 400, 0, seed=seed)
            assert np.all(curve[1:] <= curve[:-1] + 1e-12)
            assert np.all((curve >= 0) & (curve <= 1))
            assert bend_back_violations(lcl_curve("bp", node, [WEIBULL] * 2, data, grid,
                                                  0.1, 400, 0, seed=seed)) == 0

    def test_constant_curve_counts_zero(self):
        # delta on a zero-variance-direction grid: tiny grid around one point
        node = parse_structure("series(c1,c2)")
        data = self._dataset(3)
        grid = np.array([1.0, 1.0 + 1e-9])
        violations = bend_back_violations(lcl_curve("delta", node, [WEIBULL] * 2, data, grid,
                                                    seed=0))
        assert violations == 0

    @pytest.mark.parametrize("method", simulation.METHODS)
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
        rejected |= {"alpha=0.6"} if method in simulation.DELTA_METHODS else {"B=3"}
        rejected |= {"C=0"} if method in ("dbpt", "dbp") else set()
        for name, bad in bad_inputs.items():
            a = {"families": [WEIBULL] * 2, "alpha": 0.1, "B": 50, "C": 10, **bad}
            scalar = outcome(lambda: compute_lcl(method, node, a["families"], data, 1.0,
                                                 a["alpha"], a["B"], a["C"], 3))
            curve = outcome(lambda: lcl_curve(method, node, a["families"], data, grid,
                                              a["alpha"], a["B"], a["C"], 3))
            assert curve == scalar, name
            assert (scalar is not None) == (name in rejected), name
            if name != "one family":
                settings = outcome(lambda: check_lcl_settings(method, 1.0, a["alpha"], a["B"],
                                                              a["C"]))
                assert settings == scalar, name

    @pytest.mark.parametrize("method", simulation.METHODS)
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_mission_time_refused(self, method, bad):
        node = parse_structure("series(c1,c2)")
        data = self._dataset(6)
        with pytest.raises(ValueError, match="positive and finite"):
            compute_lcl(method, node, [WEIBULL] * 2, data, bad, 0.1, 20, 5, 1)
        with pytest.raises(ValueError, match="positive and finite"):
            lcl_curve(method, node, [WEIBULL] * 2, data, [1.0, bad], 0.1, 20, 5, 1)

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


def _log_uniform(sign=False):
    """Floats 10**e for e uniform over the float range, of either sign with ``sign``."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    if not sign:
        return magnitude
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda p: p[0] * p[1])


_COMPONENT = st.one_of(
    st.builds(lambda rate: {"family": "exponential", "rate": rate}, _log_uniform()),
    *(st.builds(lambda mu, sigma, name=name: {"family": name, "mu": mu, "sigma": sigma},
                _log_uniform(sign=True), _log_uniform())
      for name in ("weibull", "lognormal")))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme fits overflow on the way
@settings(max_examples=100, derandomize=True, deadline=None)
@given(structure=st.sampled_from(["series(c1,c2)", "parallel(c1,c2)", "koutofn(1; c1,c2)",
                                  "koutofn(2; c1,c2)"]),
       components=st.lists(_COMPONENT, min_size=2, max_size=2),
       t=_log_uniform(), n=st.sampled_from([2, 5]),
       censoring=st.sampled_from([None, 0.3, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_study_of_extreme_components_runs_or_is_refused_when_built(structure, components, t,
                                                                      n, censoring, seed):
    try:
        config = StudyConfig(structure=structure, t=t, n_values=(n,), components=components,
                             methods=("bp", "bb", "dbpt", "delta", "delta-standard"),
                             B=20, C=10, replications=2, seed=seed,
                             censoring_fraction=censoring)
    except (ValueError, RelboundError):
        return
    for cell in run_coverage_study(config).cells:
        for value in (cell.coverage, cell.q_lcl):
            assert value is None or math.isfinite(value), cell
