import math

import numpy as np
import pytest
from scipy.stats import kstest

from relbound.distributions import (
    EXPONENTIAL,
    LOGNORMAL,
    WEIBULL,
    ComponentModel,
    Exponential,
    Generic,
    Weibull,
    component_reliability,
    family_from_name,
    sample_lifetimes,
    time_at_reliability,
)


def logistic_family():
    return Generic(
        cdf=lambda x: 1.0 / (1.0 + np.exp(-x)),
        quantile=lambda p: np.log(p / (1.0 - p)),
        sample=lambda shape, rng: rng.logistic(size=shape),
        pdf=lambda x: 0.25 / np.cosh(0.5 * x) ** 2,
        kappa1=0.0,
        kappa2=math.pi / math.sqrt(3.0),
        name="logistic",
    )


class TestReliability:
    def test_exponential(self):
        model = ComponentModel(EXPONENTIAL, rate=1.0)
        assert component_reliability(model, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_lognormal_median(self):
        model = ComponentModel(LOGNORMAL, mu=0.0, sigma=1.0)
        assert component_reliability(model, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_weibull_unit(self):
        model = ComponentModel(WEIBULL, mu=0.0, sigma=1.0)
        assert component_reliability(model, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_rejects_nonpositive_time(self):
        model = ComponentModel(WEIBULL, mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            component_reliability(model, 0.0)

    def test_strictly_decreasing_onto_unit_interval(self):
        model = ComponentModel(WEIBULL, mu=0.5, sigma=0.7)
        grid = np.logspace(-3, 1.5, 200)  # survival saturates to 0 in floats beyond this
        vals = component_reliability(model, grid)
        assert np.all(np.diff(vals) < 0)
        assert vals[0] > 0.999 and vals[-1] < 1e-6

    def test_time_at_reliability_roundtrip(self):
        for model in (ComponentModel(WEIBULL, mu=0.3, sigma=0.7),
                      ComponentModel(EXPONENTIAL, rate=2.5)):
            t = time_at_reliability(model, 0.8)
            assert component_reliability(model, t) == pytest.approx(0.8, rel=1e-12)


class TestModelValidation:
    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            ComponentModel(LOGNORMAL, mu=1.0, sigma=0.0)

    def test_exponential_needs_rate(self):
        with pytest.raises(ValueError):
            ComponentModel(EXPONENTIAL, mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            ComponentModel(EXPONENTIAL, rate=-1.0)

    def test_rate_on_two_parameter_family_rejected(self):
        with pytest.raises(ValueError):
            ComponentModel(WEIBULL, rate=1.0)

    def test_family_lookup(self):
        assert family_from_name("weibull") is WEIBULL
        assert family_from_name("LogNormal") is LOGNORMAL
        with pytest.raises(ValueError):
            family_from_name("gamma")


class TestSampling:
    def test_weibull_ks_against_analytic_cdf(self):
        model = ComponentModel(WEIBULL, mu=0.0, sigma=1.0)
        draws = sample_lifetimes(model, 100_000, rng=101)
        stat = kstest(np.log(draws), lambda x: np.asarray(WEIBULL.cdf(x))).statistic
        assert stat < 0.01

    def test_exponential_mean(self):
        model = ComponentModel(EXPONENTIAL, rate=2.0)
        draws = sample_lifetimes(model, 100_000, rng=5)
        assert draws.mean() == pytest.approx(0.5, abs=0.01)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample_lifetimes(ComponentModel(EXPONENTIAL, rate=1.0), 0)
        with pytest.raises(ValueError):
            sample_lifetimes(ComponentModel(EXPONENTIAL, rate=1.0), (3, 0))


FOUR_KINDS = {"weibull": WEIBULL, "lognormal": LOGNORMAL, "exponential": EXPONENTIAL,
              "generic": logistic_family()}


def model_of(family):
    """A model with a different value for each parameter the family names."""
    return ComponentModel(family, **{name: 0.7 + 0.1 * i for i, name in enumerate(family.params)})


def matrix_sampler(model, shape, rng):
    # the nested oracle's former private sampler, kept as the reference
    if model.rate is not None:
        return rng.standard_exponential(shape) / model.rate
    return np.exp(model.mu + model.sigma * model.family.sample_standardized(shape, rng))


@pytest.mark.parametrize("family", FOUR_KINDS.values(), ids=FOUR_KINDS.keys())
class TestFamilyParams:
    def test_model_sets_exactly_the_named_parameters(self, family):
        model = model_of(family)
        assert tuple(model.params) == family.params
        unused = {"mu", "sigma", "rate"} - set(family.params)
        assert all(getattr(model, name) is None for name in unused)
        for name in family.params:
            with pytest.raises(ValueError):
                ComponentModel(family, **{k: v for k, v in model.params.items() if k != name})
        for name in unused:
            with pytest.raises(ValueError):
                ComponentModel(family, **model.params, **{name: 1.0})

    def test_reliability_of_the_scale_is_the_component_reliability(self, family):
        model, t = model_of(family), np.array([0.2, 1.0, 3.0])
        if family is EXPONENTIAL:
            expected = np.exp(-model.rate * t)
        else:
            expected = family.sf((np.log(t) - model.mu) / model.sigma)
        assert component_reliability(model, t).tobytes() == expected.tobytes()
        assert component_reliability(model, 1.0) == float(expected[1])

    def test_shaped_draws_match_the_matrix_sampler(self, family):
        model = model_of(family)
        shaped = sample_lifetimes(model, (4, 7), rng=np.random.default_rng(3))
        assert shaped.shape == (4, 7)
        assert shaped.tobytes() == matrix_sampler(model, (4, 7), np.random.default_rng(3)).tobytes()
        flat = sample_lifetimes(model, 28, rng=np.random.default_rng(3))
        assert shaped.ravel().tobytes() == flat.tobytes()


class TestStandardized:
    def test_weibull_cdf_at_zero(self):
        assert WEIBULL.cdf(0.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_weibull_quantile_closed_form(self):
        for p in (0.01, 0.3, 0.9, 0.999):
            assert WEIBULL.quantile(p) == pytest.approx(
                math.log(-math.log(1 - p)), rel=1e-12)

    @pytest.mark.parametrize("family,cdf_hi,sf_hi", [
        (WEIBULL, 2.0, 6.5),     # cdf saturates near 1 early; sf carries the tail to ~6.5
        (LOGNORMAL, 5.0, 10.0),
    ], ids=["weibull", "lognormal"])
    def test_quantile_cdf_roundtrip(self, family, cdf_hi, sf_hi):
        # lower/bulk region through the cdf-quantile pair
        x = np.linspace(-10, cdf_hi, 301)
        back = np.asarray(family.quantile(np.asarray(family.cdf(x))))
        assert np.max(np.abs(back - x)) < 1e-10
        # upper tail through the sf-isf pair, which keeps full precision
        x = np.linspace(-2.0, sf_hi, 301)
        back = np.asarray(family.isf(np.asarray(family.sf(x))))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_generic_roundtrip(self):
        fam = logistic_family()
        x = np.linspace(-10, 10, 401)
        assert np.max(np.abs(fam.quantile(fam.cdf(x)) - x)) < 1e-10

    @pytest.mark.parametrize("name", ["cdf", "sf", "pdf", "quantile", "isf"])
    def test_generic_callables_get_a_private_copy(self, name):
        # a callable that overwrites its argument must not reach the caller's array
        def in_place(f):
            def g(x):
                x[...] = f(x)
                return x
            return g

        logistic = logistic_family()
        fam = Generic(**{name: in_place(getattr(logistic, name))},
                      **{k: getattr(logistic, k) for k in ("cdf", "quantile")
                         if k != name},
                      sample=logistic.sample_standardized, kappa1=0.0,
                      kappa2=logistic.kappa2, name="in-place")
        arg = np.linspace(0.1, 0.9, 9)
        kept = arg.copy()
        out = getattr(fam, name)(arg)
        assert np.array_equal(arg, kept)
        assert np.allclose(out, getattr(logistic, name)(kept), rtol=1e-12, atol=0)

    def test_quantile_rejects_boundary(self):
        with pytest.raises(ValueError):
            WEIBULL.quantile(0.0)
        with pytest.raises(ValueError):
            LOGNORMAL.quantile(1.0)

    def test_exponential_inherits_the_weibull_law(self):
        assert isinstance(EXPONENTIAL, Weibull) and not isinstance(WEIBULL, Exponential)
        for name in ("kappa1", "kappa2", "cdf", "sf", "pdf", "quantile", "isf",
                     "sample_standardized"):
            assert getattr(Exponential, name) is getattr(Weibull, name)
        assert EXPONENTIAL.params == ("rate",) and EXPONENTIAL.scale(2.0, rate=0.5) == -1.0

    def test_generic_requires_positive_kappa2(self):
        with pytest.raises(ValueError):
            Generic(cdf=lambda x: x, quantile=lambda p: p,
                    sample=lambda shape, rng: rng.random(shape), kappa1=0.0, kappa2=0.0)


class TestPopulationMoments:
    @pytest.mark.parametrize("family,expected", [
        (WEIBULL, (-0.5772156649015329, math.pi / math.sqrt(6))),
        (LOGNORMAL, (0.0, 1.0)),
    ], ids=["weibull", "lognormal"])
    def test_constants(self, family, expected):
        k1, k2 = family.kappa1, family.kappa2
        assert k1 == pytest.approx(expected[0], abs=1e-12)
        assert k2 == pytest.approx(expected[1], abs=1e-12)

    @pytest.mark.parametrize("family", [WEIBULL, LOGNORMAL], ids=["weibull", "lognormal"])
    def test_constants_match_simulation(self, family):
        rng = np.random.default_rng(2)
        draws = family.sample_standardized(1_000_000, rng)
        k1, k2 = family.kappa1, family.kappa2
        se_mean = k2 / math.sqrt(draws.size)
        assert abs(draws.mean() - k1) < 3 * se_mean
        # SE of the sample SD, normal-theory scale, generous factor
        assert abs(draws.std(ddof=1) - k2) < 4 * k2 / math.sqrt(2 * draws.size)
