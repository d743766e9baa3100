import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from relbound.distributions import EXPONENTIAL, LOGNORMAL, WEIBULL, ComponentModel, time_at_reliability
from relbound.resampling import gen_aux_batch, transform_scale
from relbound.rng import generator


def transformed(family, r, z_bar, m):
    """Reliability ``r`` resampled by the two calls the first layer makes.

    ``r`` goes to its scale value (the standardized quantile, or the log
    reliability of an exponential), then through ``transform_scale`` and
    ``family.reliability``.
    """
    v = np.log(r) if family is EXPONENTIAL else family.isf(r)
    return family.reliability(transform_scale(family, v, z_bar, m))


class TestGenAux:
    def test_exponential_gamma_mean_one(self):
        _, m = gen_aux_batch(EXPONENTIAL, 10, 1_000_000, rng=1)
        assert m.mean() == pytest.approx(1.0, abs=0.003)
        # Gamma(n, 1/n) variance is 1/n
        assert m.var() == pytest.approx(0.1, abs=0.002)

    def test_lognormal_zbar_variance(self):
        z, m = gen_aux_batch(LOGNORMAL, 20, 1_000_000, rng=2)
        assert z.var() == pytest.approx(0.05, abs=0.001)
        # (n-1) m^2 ~ chi2(n-1): mean of m^2 is 1
        assert (m ** 2).mean() == pytest.approx(1.0, abs=0.002)

    def test_lognormal_independence(self):
        z, m = gen_aux_batch(LOGNORMAL, 8, 200_000, rng=3)
        corr = np.corrcoef(z, m ** 2)[0, 1]
        assert abs(corr) < 0.01

    def test_weibull_zbar_mean_is_kappa1(self):
        z, m = gen_aux_batch(WEIBULL, 15, 1_000_000, rng=4)
        assert z.mean() == pytest.approx(-0.5772156649015329, abs=0.004)
        assert (m ** 2).mean() == pytest.approx(WEIBULL.kappa2 ** 2, abs=0.01)

    def test_size_and_n_validation(self):
        with pytest.raises(ValueError):
            gen_aux_batch(LOGNORMAL, 1, 10)
        with pytest.raises(ValueError):
            gen_aux_batch(EXPONENTIAL, 0, 10)
        with pytest.raises(ValueError):
            gen_aux_batch(WEIBULL, 5, 0)

    def test_exponential_allows_n1(self):
        z, m = gen_aux_batch(EXPONENTIAL, 1, 1, rng=0)
        assert z.tolist() == [0.0] and m[0] > 0.0

    def test_paper_literal_lognormal_differs(self):
        z_exact, m_exact = gen_aux_batch(LOGNORMAL, 10, 50_000, rng=5)
        z_lit, m_lit = gen_aux_batch(LOGNORMAL, 10, 50_000, rng=5, paper_literal=True)
        # printed recipe yields the reciprocal-scaled M; the laws are visibly different
        assert ks_2samp(m_exact, m_lit).pvalue < 1e-6
        assert ks_2samp(z_exact, z_lit).pvalue < 1e-6


class TestTransform:
    def test_lognormal_identity_at_population_values(self):
        for r in (0.1, 0.5, 0.9, 0.999):
            assert transformed(LOGNORMAL, r, 0.0, 1.0) == pytest.approx(r, abs=1e-15)

    def test_exponential_identity_at_m_one(self):
        assert transformed(EXPONENTIAL, 0.9, 0.0, 1.0) == pytest.approx(0.9, rel=1e-15)

    def test_weibull_identity_at_population_values(self):
        for r in (0.2, 0.5, 0.99):
            assert transformed(WEIBULL, r, WEIBULL.kappa1, WEIBULL.kappa2) == pytest.approx(
                r, rel=1e-12)

    def test_exponential_algebraic_inverse(self):
        m, r = 1.7, 0.83
        assert transformed(EXPONENTIAL, r, 0.0, m) ** m == pytest.approx(r, rel=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        z_bar, m = gen_aux_batch(WEIBULL, 8, 200, rng)
        out = transformed(WEIBULL, rng.uniform(0.01, 0.99, 200), z_bar, m)
        assert np.all((out > 0.0) & (out < 1.0))

    @given(st.floats(0.01, 0.98), st.floats(1e-4, 0.019))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_r(self, r, dr):
        for family in (WEIBULL, LOGNORMAL, EXPONENTIAL):
            lo = transformed(family, r, -0.3, 1.4)
            hi = transformed(family, r + dr, -0.3, 1.4)
            assert hi > lo


class TestTheorem3Law:
    """The transform's law must match actually re-estimating on fresh data."""

    def _oracle_draws(self, family, model, t, n, size, seed):
        rng = generator(seed)
        out = np.empty(size)
        if family is EXPONENTIAL:
            x = rng.standard_exponential((size, n)) / model.rate
            return np.exp(-(n / x.sum(axis=1)) * t)
        draws = np.exp(model.mu + model.sigma * family.sample_standardized((size, n), rng))
        logs = np.log(draws)
        sigma = logs.std(axis=1, ddof=1) / family.kappa2
        mu = logs.mean(axis=1) - family.kappa1 * sigma
        return np.asarray(family.sf((np.log(t) - mu) / sigma))

    def test_weibull_fidelity(self):
        model = ComponentModel(WEIBULL, mu=0.3, sigma=0.7)
        r, n, size = 0.8, 10, 100_000
        t = time_at_reliability(model, r)
        zb, m = gen_aux_batch(WEIBULL, n, size, rng=21)
        draws = transformed(WEIBULL, r, zb, m)
        oracle = self._oracle_draws(WEIBULL, model, t, n, size, 22)
        assert ks_2samp(draws, oracle).pvalue > 0.01

    def test_parameter_invariance_two_weibull_models(self):
        # same r(t), very different (mu, sigma): identical estimator laws
        r, n, size = 0.8, 10, 100_000
        model_a = ComponentModel(WEIBULL, mu=0.3, sigma=0.7)
        model_b = ComponentModel(WEIBULL, mu=-1.2, sigma=2.1)
        a = self._oracle_draws(WEIBULL, model_a, time_at_reliability(model_a, r), n, size, 31)
        b = self._oracle_draws(WEIBULL, model_b, time_at_reliability(model_b, r), n, size, 32)
        assert ks_2samp(a, b).pvalue > 1e-3
