import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from relbound.distributions import (
    EXPONENTIAL,
    LOGNORMAL,
    WEIBULL,
    ComponentModel,
    Generic,
    component_reliability,
    sample_lifetimes,
)
from relbound.errors import DegenerateSampleError, EstimationError
from relbound.estimators import (
    delta_curve,
    delta_lcl,
    fisher_information,
    loglik,
    mle_fit,
    moment_estimate,
    observed_information,
)
from relbound.structures import parse_structure

EULER = 0.5772156649015329
KAPPA2 = math.pi / math.sqrt(6)


class TestMomentEstimate:
    def test_exponential_unit_data(self):
        est = moment_estimate(EXPONENTIAL, [1.0, 1.0, 1.0, 1.0])
        assert est.rate_hat == pytest.approx(1.0, rel=1e-15)

    def test_lognormal_symmetric_logs(self):
        est = moment_estimate(LOGNORMAL, np.exp([-1.0, 0.0, 1.0]))
        assert est.mu_hat == pytest.approx(0.0, abs=1e-12)
        assert est.sigma_hat == pytest.approx(1.0, rel=1e-12)

    def test_weibull_frozen_arithmetic(self):
        # log data (0, .5, 1, 1.5): xbar = 0.75, s = sqrt(5/12);
        # sigma = s / (pi/sqrt 6), mu = xbar + gamma * sigma
        est = moment_estimate(WEIBULL, np.exp([0.0, 0.5, 1.0, 1.5]))
        sigma = math.sqrt(5.0 / 12.0) / KAPPA2
        assert est.sigma_hat == pytest.approx(0.5032921210448703, rel=1e-12)
        assert est.sigma_hat == pytest.approx(sigma, rel=1e-12)
        assert est.mu_hat == pytest.approx(1.0405080962886175, rel=1e-12)
        assert est.mu_hat == pytest.approx(0.75 + EULER * sigma, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(EstimationError):
            moment_estimate(WEIBULL, [2.0])

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            moment_estimate(LOGNORMAL, [3.0, 3.0, 3.0])

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            moment_estimate(WEIBULL, [1.0, -2.0])

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(12)
        data = rng.lognormal(0.4, 0.8, size=16)
        base = moment_estimate(WEIBULL, data)
        scaled = moment_estimate(WEIBULL, c * data)
        assert scaled.sigma_hat == pytest.approx(base.sigma_hat, rel=1e-10)
        assert scaled.mu_hat == pytest.approx(base.mu_hat + math.log(c), rel=1e-10, abs=1e-10)


LOGISTIC = Generic(cdf=lambda x: 1.0 / (1.0 + np.exp(-x)),
                   quantile=lambda p: np.log(p / (1.0 - p)),
                   sample=lambda shape, rng: rng.logistic(size=shape),
                   kappa1=0.0, kappa2=math.pi / math.sqrt(3.0), name="logistic")
FOUR_KINDS = {"weibull": WEIBULL, "lognormal": LOGNORMAL, "exponential": EXPONENTIAL,
              "generic": LOGISTIC}


@pytest.mark.parametrize("family", FOUR_KINDS.values(), ids=FOUR_KINDS.keys())
class TestRowFits:
    @pytest.mark.parametrize("n", [2, 5, 37, 300])
    def test_each_row_fit_is_the_one_dimensional_fit(self, family, n):
        x = np.random.default_rng(n).lognormal(0.3, 0.9, size=(6, n))
        rows = moment_estimate(family, x)
        assert rows.n == n
        for name, values in rows.params.items():
            assert values.shape == (6,)
            for j in range(6):
                one = moment_estimate(family, x[j]).params[name]
                assert type(one) is float
                assert np.float64(one).tobytes() == values[j].tobytes()

    def test_summary_and_model_follow_the_family_params(self, family):
        est = moment_estimate(family, [0.5, 1.0, 2.5])
        assert list(est.params) == list(family.params)
        assert list(est.summary()) == ["family", "estimator", "n",
                                       *(f"{name}_hat" for name in family.params)]
        model = ComponentModel(est.family, **est.params)
        assert model.params == est.params
        assert component_reliability(est, 1.3) == component_reliability(model, 1.3)


def test_a_degenerate_row_fails_the_row_fit():
    x = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
    with pytest.raises(DegenerateSampleError):
        moment_estimate(WEIBULL, x)
    with pytest.raises(ValueError, match="2-D array of rows"):
        moment_estimate(WEIBULL, x[None])


class TestMomentReliability:
    # the plug-in reliability: the moment estimate in component_reliability
    def test_exponential(self):
        est = moment_estimate(EXPONENTIAL, [1.0] * 4)
        assert component_reliability(est, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_lognormal(self):
        est = moment_estimate(LOGNORMAL, np.exp([-1.0, 0.0, 1.0]))
        assert component_reliability(est, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data = rng.lognormal(0, 2, size=5)
            t = float(rng.uniform(0.01, 100))
            assert 0.0 <= component_reliability(moment_estimate(WEIBULL, data), t) <= 1.0


class TestMle:
    def test_exponential(self):
        est = mle_fit(EXPONENTIAL, [2.0, 2.0, 2.0])
        assert est.rate_hat == pytest.approx(0.5, rel=1e-15)

    def test_lognormal_closed_form(self):
        est = mle_fit(LOGNORMAL, np.exp([-1.0, 0.0, 1.0]))
        assert est.mu_hat == pytest.approx(0.0, abs=1e-12)
        assert est.sigma_hat == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_weibull_consistency(self):
        model = ComponentModel(WEIBULL, mu=1.0, sigma=0.5)
        data = sample_lifetimes(model, 10_000, rng=1)
        est = mle_fit(WEIBULL, data)
        assert est.mu_hat == pytest.approx(1.0, abs=0.02)
        assert est.sigma_hat == pytest.approx(0.5, abs=0.02)

    def test_weibull_matches_scipy(self):
        from scipy.stats import weibull_min

        data = sample_lifetimes(ComponentModel(WEIBULL, mu=0.5, sigma=0.8), 200, rng=7)
        est = mle_fit(WEIBULL, data)
        shape, _, scale = weibull_min.fit(data, floc=0.0)
        assert est.sigma_hat == pytest.approx(1.0 / shape, rel=1e-4)
        assert est.mu_hat == pytest.approx(math.log(scale), rel=1e-4)

    def test_scale_equivariance(self):
        data = sample_lifetimes(ComponentModel(WEIBULL, mu=0.0, sigma=1.2), 25, rng=11)
        base = mle_fit(WEIBULL, data)
        scaled = mle_fit(WEIBULL, 7.5 * data)
        assert scaled.sigma_hat == pytest.approx(base.sigma_hat, rel=1e-8)
        assert scaled.mu_hat == pytest.approx(base.mu_hat + math.log(7.5), rel=1e-8)

    def test_needs_two_uncensored(self):
        with pytest.raises(EstimationError):
            mle_fit(WEIBULL, [1.0, 2.0, 3.0], censored_mask=[0, 1, 1])

    def test_censored_weibull_recovery(self):
        from relbound.censoring import type2_censor

        model = ComponentModel(WEIBULL, mu=1.0, sigma=0.5)
        times = sample_lifetimes(model, 10_000, rng=8)
        cd = type2_censor(times, 7_000)
        est = mle_fit(WEIBULL, cd.times, cd.censored)
        assert est.mu_hat == pytest.approx(1.0, abs=0.03)
        assert est.sigma_hat == pytest.approx(0.5, abs=0.03)

    def test_censored_lognormal_recovery(self):
        from relbound.censoring import type2_censor

        model = ComponentModel(LOGNORMAL, mu=0.5, sigma=1.2)
        times = sample_lifetimes(model, 5_000, rng=9)
        cd = type2_censor(times, 3_500)
        est = mle_fit(LOGNORMAL, cd.times, cd.censored)
        assert est.mu_hat == pytest.approx(0.5, abs=0.05)
        assert est.sigma_hat == pytest.approx(1.2, abs=0.05)

    def test_censored_exponential_closed_form(self):
        # classic: rate = failures / total time on test
        times = np.array([1.0, 2.0, 4.0, 4.0])
        mask = np.array([0, 0, 0, 1], dtype=bool)
        est = mle_fit(EXPONENTIAL, times, mask)
        assert est.rate_hat == pytest.approx(3.0 / 11.0, rel=1e-12)


class TestLogLik:
    def test_complete_equals_sum_of_log_densities(self):
        data = np.array([0.5, 1.5, 2.5])
        mu, sigma = 0.3, 0.8
        z = (np.log(data) - mu) / sigma
        direct = float(np.sum(np.log(WEIBULL.pdf(z) / (sigma * data))))
        assert loglik(WEIBULL, (mu, sigma), data) == pytest.approx(direct, rel=1e-12)

    def test_censored_rows_add_log_survival(self):
        times = np.array([1.0, 2.0, 2.0])
        mask = np.array([0, 0, 1], dtype=bool)
        mu, sigma = 0.1, 0.6
        complete = loglik(LOGNORMAL, (mu, sigma), times[:2])
        z_c = (math.log(2.0) - mu) / sigma
        assert loglik(LOGNORMAL, (mu, sigma), times, mask) == pytest.approx(
            complete + math.log(float(LOGNORMAL.sf(z_c))), rel=1e-12)


class TestFisherInformation:
    def test_lognormal_diag(self):
        info = fisher_information(ComponentModel(LOGNORMAL, mu=0.0, sigma=1.0), 25)
        assert info == pytest.approx(np.diag([25.0, 50.0]), rel=1e-12)

    def test_exponential(self):
        info = fisher_information(ComponentModel(EXPONENTIAL, rate=2.0), 10)
        assert info == pytest.approx(np.array([[2.5]]), rel=1e-12)

    def test_weibull_against_quadrature(self):
        # score outer products of the smallest-extreme-value log density;
        # the density annihilates everything beyond z ~ 30
        def lp(z):
            return 1.0 - math.exp(z)

        def pdf(z):
            return math.exp(z - math.exp(z))

        def entry(weight):
            return quad(lambda z: 0.0 if z > 30 else weight(z) * pdf(z),
                        -np.inf, np.inf, epsrel=1e-10)[0]

        a11 = entry(lambda z: lp(z) ** 2)
        a12 = entry(lambda z: lp(z) * (1 + z * lp(z)))
        a22 = entry(lambda z: (1 + z * lp(z)) ** 2)
        sigma, n = 0.7, 13
        info = fisher_information(ComponentModel(WEIBULL, mu=0.2, sigma=sigma), n)
        expected = n / sigma ** 2 * np.array([[a11, a12], [a12, a22]])
        assert np.max(np.abs(info - expected)) < 1e-6

    def test_symmetric_positive_definite(self):
        for model in [
            ComponentModel(WEIBULL, mu=0.0, sigma=0.3),
            ComponentModel(LOGNORMAL, mu=1.0, sigma=2.0),
        ]:
            info = fisher_information(model, 7)
            assert np.allclose(info, info.T)
            assert np.all(np.linalg.eigvalsh(info) > 0)

    def test_generic_quadrature_reproduces_weibull_closed_form(self):
        from relbound.distributions import Generic, WEIBULL as W

        generic_sev = Generic(
            cdf=W.cdf, quantile=W.quantile,
            sample=W.sample_standardized,
            pdf=W.pdf,
            kappa1=W.kappa1, kappa2=W.kappa2, name="sev-as-generic",
        )
        model = ComponentModel(generic_sev, mu=0.1, sigma=0.8)
        info = fisher_information(model, 9)
        closed = fisher_information(ComponentModel(WEIBULL, mu=0.1, sigma=0.8), 9)
        assert np.max(np.abs(info - closed)) < 1e-5

    def test_a_family_without_pdf_is_refused(self):
        from scipy.special import ndtr, ndtri

        from relbound.censoring import impute, type2_censor

        normal = Generic(cdf=ndtr, quantile=ndtri, kappa1=0.0, kappa2=1.0,
                         sample=lambda shape, rng: rng.standard_normal(shape), name="normal")
        model = ComponentModel(normal, mu=0.0, sigma=1.0)
        data = [sample_lifetimes(model, 30, rng=i) for i in range(2)]
        refused = pytest.raises(EstimationError, match="without a pdf")
        with refused:
            fisher_information(model, 30)
        with refused:
            mle_fit(normal, data[0])
        with refused:
            impute(normal, type2_censor(data[0], 20))
        with refused:
            delta_lcl(parse_structure("series(c1,c2)"), [normal, normal], data, 1.0, 0.1)

    @pytest.mark.filterwarnings("ignore")  # quad reports the roundoff it gives up on
    def test_non_finite_information_raises(self):
        # a pdf differenced from the cdf is 0 where the cdf rounds to 1 but the
        # density does not, so the quadrature of its log slope is not finite
        from scipy.special import ndtr, ndtri

        def differenced_pdf(x):
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            return (ndtr(x + h) - ndtr(x - h)) / (2.0 * h)

        normal = Generic(cdf=ndtr, quantile=ndtri, kappa1=0.0, kappa2=1.0,
                         sample=lambda shape, rng: rng.standard_normal(shape),
                         pdf=differenced_pdf, name="normal")
        model = ComponentModel(normal, mu=0.0, sigma=1.0)
        with pytest.raises(EstimationError, match="not finite"):
            fisher_information(model, 30)
        node = parse_structure("series(c1,c2)")
        data = [sample_lifetimes(model, 30, rng=i) for i in range(2)]
        with pytest.raises(EstimationError, match="not finite"):
            delta_lcl(node, [normal, normal], data, 1.0, 0.1)

    @pytest.mark.filterwarnings("ignore")  # the logistic pdf below overflows to NaN
    def test_nan_density_is_no_mass_only_outside_the_support(self):
        from scipy.special import ndtr, ndtri

        # NaN on x >= 1, where the normal law still has mass: refused
        normal = Generic(cdf=ndtr, quantile=ndtri, kappa1=0.0, kappa2=1.0,
                         sample=lambda shape, rng: rng.standard_normal(shape),
                         pdf=lambda x: np.where(x < 1.0, np.exp(-0.5 * x * x)
                                                / math.sqrt(2.0 * math.pi), np.nan),
                         name="normal")
        with pytest.raises(EstimationError, match="not finite at z=1, inside"):
            fisher_information(ComponentModel(normal, mu=0.0, sigma=1.0), 1)
        # NaN only far in the left tail, where the cdf underflows to 0: no mass
        logistic = Generic(cdf=LOGISTIC.cdf, quantile=LOGISTIC.quantile,
                           sample=LOGISTIC.sample_standardized,
                           pdf=lambda x: np.exp(-x) / (1.0 + np.exp(-x)) ** 2,
                           kappa1=0.0, kappa2=LOGISTIC.kappa2, name="logistic")
        assert np.isnan(logistic.pdf(-1000.0))
        info = fisher_information(ComponentModel(logistic, mu=0.0, sigma=1.0), 1)
        assert info[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-7)
        assert info[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert info[1, 1] == pytest.approx(1.0 / 3.0 + math.pi ** 2 / 9.0, rel=1e-7)

    def test_observed_matches_expected_complete_lognormal(self):
        data = sample_lifetimes(ComponentModel(LOGNORMAL, mu=0.0, sigma=1.0), 400, rng=4)
        est = mle_fit(LOGNORMAL, data)
        obs = observed_information(est, data)
        exp = fisher_information(est, 400)
        assert np.max(np.abs(obs - exp) / np.abs(exp).max()) < 1e-3


class TestDeltaLcl:
    @pytest.mark.parametrize("times", [[1e-300, 2e-300, 3e-300], [1e300, 2e300, 3e300],
                                       [1e308, 1e308, 1e308]],
                             ids=["rate-squared-overflows", "rate-squared-underflows",
                                  "time-on-test-overflows"])
    def test_extreme_exponential_information_is_an_estimation_error(self, times):
        node = parse_structure("series(c1)")
        with np.errstate(over="ignore"), pytest.raises(EstimationError,
                                                       match="information|time on test"):
            delta_lcl(node, [EXPONENTIAL], [times], 1.0, 0.1)

    def test_zero_se_returns_point_estimate_standard_form(self):
        # one exponential component at tiny t: dr/dlambda ~ -t, se ~ t -> ~0
        node = parse_structure("series(c1)")
        res = delta_lcl(node, [EXPONENTIAL], [[1.0, 1.1, 0.9]], 1e-12, 0.1, form="standard")
        assert res.raw_value == pytest.approx(res.r_hat, abs=1e-9)
        assert not res.fell_outside

    def test_paper_form_doubles_point_estimate(self):
        node = parse_structure("series(c1,c2)")
        data = [[0.5, 1.0, 2.0, 4.0], [0.3, 0.9, 2.7, 8.1]]
        paper = delta_lcl(node, [LOGNORMAL, LOGNORMAL], data, 1.0, 0.1, form="paper")
        std = delta_lcl(node, [LOGNORMAL, LOGNORMAL], data, 1.0, 0.1, form="standard")
        assert paper.raw_value == pytest.approx(std.raw_value + paper.r_hat, rel=1e-12)
        assert paper.r_hat == std.r_hat

    def test_gradient_matches_finite_differences(self):
        node = parse_structure("series(c1,parallel(c2,c3))")
        families = [WEIBULL, LOGNORMAL, WEIBULL]
        models = [ComponentModel(WEIBULL, mu=0.4, sigma=0.6),
                  ComponentModel(LOGNORMAL, mu=0.1, sigma=0.9),
                  ComponentModel(WEIBULL, mu=-0.2, sigma=0.5)]
        datasets = [sample_lifetimes(m, 30, rng=i) for i, m in enumerate(models)]
        fits = [mle_fit(f, d) for f, d in zip(families, datasets)]
        t = 1.3

        def system_r(thetas):
            rs = []
            for fam, th in zip(families, thetas):
                rs.append(component_reliability(ComponentModel(fam, mu=th[0], sigma=th[1]), t))
            from relbound.structures import eval_reliability
            return eval_reliability(node, rs)

        from relbound.estimators import _reliability_gradient
        from relbound.structures import eval_reliability, structure_partials

        thetas = [(f.mu_hat, f.sigma_hat) for f in fits]
        partials = structure_partials(node, [component_reliability(f, t) for f in fits])
        h = 1e-6
        for i in range(3):
            grad = partials[i] * _reliability_gradient(fits[i], t)
            for j in range(2):
                hi = [list(th) for th in thetas]
                lo = [list(th) for th in thetas]
                hi[i][j] += h
                lo[i][j] -= h
                fd = (system_r(hi) - system_r(lo)) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6)

    def test_coverage_standard_form_exponential_n100(self):
        # one-component system: standard one-sided limit is asymptotically 90%
        node = parse_structure("series(c1)")
        model = ComponentModel(EXPONENTIAL, rate=1.0)
        t = -math.log(0.9)
        rng = np.random.default_rng(52)
        cover = 0
        reps = 5000
        for _ in range(reps):
            data = [sample_lifetimes(model, 100, rng)]
            res = delta_lcl(node, [EXPONENTIAL], data, t, 0.1, form="standard")
            cover += 0.9 >= res.raw_value
        assert cover / reps == pytest.approx(0.90, abs=0.02)

    @pytest.mark.filterwarnings("ignore")  # the pdf below overflows to NaN
    def test_non_finite_standard_error_raises(self):
        # exp(-x) overflows at the standardized log time of t = 1e-200, so the
        # pdf, the gradient and the standard error are NaN there
        logistic = Generic(cdf=LOGISTIC.cdf, quantile=LOGISTIC.quantile,
                           sample=LOGISTIC.sample_standardized,
                           pdf=lambda x: np.exp(-x) / (1.0 + np.exp(-x)) ** 2,
                           kappa1=0.0, kappa2=LOGISTIC.kappa2, name="logistic")
        node = parse_structure("series(c1,c2)")
        model = ComponentModel(logistic, mu=0.0, sigma=0.5)
        data = [sample_lifetimes(model, 20, rng=i) for i in range(2)]
        assert math.isfinite(delta_lcl(node, [logistic] * 2, data, 1.0, 0.1).raw_value)
        with pytest.raises(EstimationError, match="standard error at t=1e-200 is not finite"):
            delta_lcl(node, [logistic] * 2, data, 1e-200, 0.1)
        with pytest.raises(EstimationError, match="standard error at t=1e-200 is not finite"):
            delta_curve(node, [logistic] * 2, data, [1e-200, 1e-250, 1.0], 0.1, form="standard")

    def test_alpha_validation(self):
        node = parse_structure("series(c1)")
        with pytest.raises(ValueError):
            delta_lcl(node, [EXPONENTIAL], [[1.0, 2.0]], 1.0, alpha=0.7)


class TestDeltaCurve:
    @pytest.mark.parametrize("text, family", [
        ("koutofn(2;c1,...,c5)", WEIBULL),
        ("series(c1,...,c16)", WEIBULL),
        ("parallel(c1,c2,c3)", EXPONENTIAL),
    ], ids=["koutofn2of5-weibull", "series16-weibull", "parallel3-exponential"])
    def test_equals_scalar_at_every_time_with_censoring(self, text, family):
        from relbound.censoring import type2_censor
        from relbound.simulation import default_t_grid, solve_identical_components

        node = parse_structure(text)
        models, _ = solve_identical_components(node, family, 0.9, 1.0)
        rng = np.random.default_rng(8)
        censored = [type2_censor(sample_lifetimes(m, 12, rng), 9) for m in models]
        times = [c.times for c in censored]
        masks = [c.censored for c in censored]
        families = [family] * len(models)
        grid = default_t_grid(1.0, 50, 1.0)
        for form in ("paper", "standard"):
            curve = delta_curve(node, families, times, grid, 0.1, form=form,
                                censored_masks=masks)
            scalar = [delta_lcl(node, families, times, t, 0.1, form=form,
                                censored_masks=masks).raw_value for t in grid]
            assert curve.tobytes() == np.array(scalar).tobytes()

    def test_checks_like_the_scalar(self):
        node = parse_structure("series(c1)")
        data = [[1.0, 2.0, 3.0]]
        for kwargs in ({"alpha": 0.7}, {"form": "textbook"}):
            with pytest.raises(ValueError) as scalar:
                delta_lcl(node, [EXPONENTIAL], data, 1.0, **kwargs)
            with pytest.raises(ValueError) as curve:
                delta_curve(node, [EXPONENTIAL], data, [1.0, 2.0], **kwargs)
            assert str(curve.value) == str(scalar.value)
