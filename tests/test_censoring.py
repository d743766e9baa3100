import math

import numpy as np
import pytest
from scipy.integrate import quad

from relbound.censoring import CensoredDataset, censoring_count, impute, type2_censor
from relbound.distributions import EXPONENTIAL, LOGNORMAL, WEIBULL, ComponentModel, sample_lifetimes
from relbound.errors import EstimationError
from relbound.estimators import loglik, mle_fit, moment_estimate, observed_information


class TestType2Censor:
    def test_basic(self):
        cd = type2_censor([3.0, 1.0, 2.0], 2)
        assert cd.times.tolist() == [1.0, 2.0, 2.0]
        assert cd.censored.tolist() == [False, False, True]

    def test_no_censoring_when_all_observed(self):
        cd = type2_censor([5.0, 1.0, 3.0], 3)
        assert not cd.censored.any()
        assert cd.times.tolist() == [1.0, 3.0, 5.0]

    def test_seventy_percent_rule(self):
        assert censoring_count(10, 0.3) == 7
        cd = type2_censor(np.arange(1.0, 11.0), censoring_count(10, 0.3))
        assert int(cd.censored.sum()) == 3
        assert int((~cd.censored).sum()) == 7

    def test_invalid_n_tilde(self):
        with pytest.raises(ValueError):
            type2_censor([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            type2_censor([1.0, 2.0], 3)

    def test_dataset_invariants_enforced(self):
        with pytest.raises(ValueError):
            CensoredDataset(np.array([1.0, 2.0]), np.array([True, True]))
        with pytest.raises(ValueError):
            # censored row below the largest observed failure is not Type-II
            CensoredDataset(np.array([1.0, 2.0, 1.5]), np.array([False, False, True]))


class TestImpute:
    def test_identity_without_censoring(self):
        cd = type2_censor([1.0, 2.0, 3.0], 3)
        out = impute(WEIBULL, cd)
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_exponential_memorylessness(self):
        times = np.array([1.0, 2.0, 3.0, 3.0, 3.0])
        mask = np.array([0, 0, 0, 1, 1], dtype=bool)
        cd = CensoredDataset(times, mask)
        fit = mle_fit(EXPONENTIAL, times, mask)
        out = impute(EXPONENTIAL, cd)
        assert out[3] == pytest.approx(3.0 + 1.0 / fit.rate_hat, rel=1e-12)
        assert out[4] == out[3]

    def test_lognormal_matches_quadrature(self):
        rng = np.random.default_rng(14)
        times = sample_lifetimes(ComponentModel(LOGNORMAL, mu=0.2, sigma=0.8), 40, rng)
        cd = type2_censor(times, 28)
        fit = mle_fit(LOGNORMAL, cd.times, cd.censored)
        out = impute(LOGNORMAL, cd)
        a = (math.log(cd.times[cd.censored][0]) - fit.mu_hat) / fit.sigma_hat
        tail = float(LOGNORMAL.sf(np.asarray(a)))
        cond_mean = quad(lambda z: z * float(LOGNORMAL.pdf(np.asarray(z))), a, np.inf,
                         epsabs=1e-13, epsrel=1e-12)[0] / tail
        expected = math.exp(fit.mu_hat + fit.sigma_hat * cond_mean)
        assert out[cd.censored][0] == pytest.approx(expected, rel=1e-8)

    def test_imputed_values_exceed_censor_time(self):
        rng = np.random.default_rng(15)
        for family in (WEIBULL, LOGNORMAL, EXPONENTIAL):
            times = sample_lifetimes(ComponentModel(WEIBULL, mu=1.0, sigma=0.5), 20, rng)
            cd = type2_censor(times, 14)
            for mode in ("mean", "quantile"):
                out = impute(family, cd, mode=mode)
                censor_time = cd.times[cd.censored][0]
                assert np.all(out[cd.censored] > censor_time)
                assert np.all(out[~cd.censored] == cd.times[~cd.censored])

    def test_quantile_mode_spreads_values(self):
        rng = np.random.default_rng(16)
        times = sample_lifetimes(ComponentModel(WEIBULL, mu=0.0, sigma=1.0), 20, rng)
        cd = type2_censor(times, 14)
        out = impute(WEIBULL, cd, mode="quantile")
        imputed = out[cd.censored]
        assert len(np.unique(imputed)) == len(imputed)
        assert np.all(np.diff(np.sort(imputed)) > 0)

    def test_bad_mode(self):
        cd = type2_censor([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            impute(WEIBULL, cd, mode="median")


class TestCensoredLoglik:
    def test_equals_complete_loglik_without_censoring(self):
        times = np.array([0.5, 1.2, 3.4])
        cd = type2_censor(times, 3)
        assert loglik(LOGNORMAL, (0.1, 0.9), cd.times, cd.censored) == pytest.approx(
            loglik(LOGNORMAL, (0.1, 0.9), times), rel=1e-12)

    def test_exponential_closed_form_mle_maximizes(self):
        times = np.array([1.0, 2.0, 5.0, 5.0])
        mask = np.array([0, 0, 0, 1], dtype=bool)
        cd = CensoredDataset(times, mask)
        rate_hat = 3.0 / 13.0
        base = loglik(EXPONENTIAL, rate_hat, cd.times, cd.censored)
        for rate in (rate_hat * 0.9, rate_hat * 1.1):
            assert loglik(EXPONENTIAL, rate, cd.times, cd.censored) < base

    def test_censored_mle_agrees_with_complete_when_uncensored(self):
        rng = np.random.default_rng(17)
        times = sample_lifetimes(ComponentModel(WEIBULL, mu=0.3, sigma=0.7), 50, rng)
        mask = np.zeros(50, dtype=bool)
        a = mle_fit(WEIBULL, times)
        b = mle_fit(WEIBULL, times, mask)
        assert a.mu_hat == pytest.approx(b.mu_hat, rel=1e-9)
        assert a.sigma_hat == pytest.approx(b.sigma_hat, rel=1e-9)

    @pytest.mark.parametrize("family, message", [
        (WEIBULL, "imputed dataset refused: failure times must be finite and > 0"),
        (LOGNORMAL, "imputed dataset refused: failure times must be finite and > 0"),
        (EXPONENTIAL, "exponential MLE: the total time on test overflows"),
    ])
    def test_imputation_past_the_float_limit_is_refused(self, family, message):
        # censored at 1e308, the imputed times overflow, and so does the time on test
        times = [1e306, 1e307, 1e308, 1.5e308, 1.7e308]
        with np.errstate(over="ignore"), pytest.raises(EstimationError) as err:
            impute(family, type2_censor(times, 3))
        assert str(err.value) == message

    def test_impute_requires_enough_failures(self):
        times = np.array([1.0, 1.0, 1.0])
        cd = CensoredDataset(np.array([2.0, 2.0, 2.0]), np.array([False, True, True]))
        with pytest.raises(EstimationError):
            impute(WEIBULL, cd)


class TestFailureDataRule:
    TIMES = np.array([1.0, 2.0, 3.0, 3.0])

    def callers(self, times, flags):
        fit = mle_fit(WEIBULL, self.TIMES)
        return [lambda: mle_fit(WEIBULL, times, flags),
                lambda: loglik(WEIBULL, (0.0, 1.0), times, flags),
                lambda: observed_information(fit, times, flags),
                lambda: CensoredDataset(times, flags)]

    @pytest.mark.parametrize("bad", [0.5, 2, -1, math.nan])
    def test_a_flag_other_than_0_or_1_is_refused_by_every_caller(self, bad):
        for call in self.callers(self.TIMES, [0, 0, 0, bad]):
            with pytest.raises(ValueError, match="censored flags must be 0 or 1"):
                call()

    def test_flags_must_align_with_the_times(self):
        for call in self.callers(self.TIMES, [0, 0, 1]):
            with pytest.raises(ValueError, match="align with the 4 failure times"):
                call()

    def test_bools_and_ints_are_the_same_flags(self):
        ints, bools = [0, 0, 0, 1], [False, False, False, True]
        assert mle_fit(WEIBULL, self.TIMES, ints) == mle_fit(WEIBULL, self.TIMES, bools)
        assert CensoredDataset(self.TIMES, ints).censored.tolist() == bools

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_a_time_not_finite_and_positive_is_refused_by_every_caller(self, bad):
        times = np.array([1.0, 2.0, 3.0, bad])
        calls = self.callers(times, None)[:3] + [lambda: CensoredDataset(times, [0, 0, 0, 0]),
                                                 lambda: moment_estimate(WEIBULL, times)]
        for call in calls:
            with pytest.raises(ValueError, match="^failure times must be finite and > 0$"):
                call()
