"""Log-location-scale lifetime families and component lifetime models.

A family carries the standardized CDF of the log lifetime together with its
population mean and standard deviation (kappa1, kappa2), which drive the
moment estimators and the reliability transform.  Weibull lifetimes put a
smallest-extreme-value distribution on the log scale; log-normal lifetimes a
standard normal; the exponential is kept as its own one-parameter variant
because its estimator and auxiliary law differ from the two-parameter path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .rng import generator

__all__ = [
    "LifetimeFamily",
    "Weibull",
    "LogNormal",
    "Exponential",
    "Generic",
    "WEIBULL",
    "LOGNORMAL",
    "EXPONENTIAL",
    "family_from_name",
    "ComponentModel",
    "component_reliability",
    "sample_lifetimes",
    "time_at_reliability",
    "standardized_cdf",
    "standardized_quantile",
    "population_moments",
]

EULER_GAMMA = float(np.euler_gamma)
SEV_KAPPA2 = math.pi / math.sqrt(6.0)


class LifetimeFamily:
    """Standardized log-lifetime distribution plus moment constants."""

    name: str = "abstract"
    kappa1: float
    kappa2: float

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - cdf(x), computed without cancellation."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def isf(self, q):
        """Quantile of 1 - q, i.e. the upper-tail inverse, stable for small q."""
        return self.quantile(1.0 - np.asarray(q, dtype=float))

    def sample_standardized(self, shape, rng):
        """Draws from the standardized distribution, any requested shape."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class Weibull(LifetimeFamily):
    """Weibull lifetimes: log lifetime follows the smallest-extreme-value law.

    Standardized CDF F(x) = 1 - exp(-e^x); kappa1 = -gamma, kappa2 = pi/sqrt(6).
    """

    name = "weibull"
    kappa1 = -EULER_GAMMA
    kappa2 = SEV_KAPPA2

    def cdf(self, x):
        with np.errstate(over="ignore"):  # exp overflow saturates the cdf at 1
            return -np.expm1(-np.exp(np.asarray(x, dtype=float)))

    def sf(self, x):
        with np.errstate(over="ignore"):  # exp overflow flushes survival to 0
            return np.exp(-np.exp(np.asarray(x, dtype=float)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # exp(x) overflow flushes the density to 0
            return np.exp(x - np.exp(x))

    def quantile(self, p):
        p = _check_prob(p)
        return np.log(-np.log1p(-p))

    def isf(self, q):
        q = _check_prob(q)
        return np.log(-np.log(q))

    def sample_standardized(self, shape, rng):
        return np.log(rng.standard_exponential(shape))


class LogNormal(LifetimeFamily):
    """Log-normal lifetimes: standard normal on the log scale; kappa = (0, 1)."""

    name = "lognormal"
    kappa1 = 0.0
    kappa2 = 1.0

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float))

    def sf(self, x):
        return ndtr(-np.asarray(x, dtype=float))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def quantile(self, p):
        return ndtri(_check_prob(p))

    def isf(self, q):
        return -ndtri(_check_prob(q))

    def sample_standardized(self, shape, rng):
        return rng.standard_normal(shape)


class Exponential(LifetimeFamily):
    """Exponential lifetimes, parameterized by the rate lambda.

    On the log scale this is the unit smallest-extreme-value distribution with
    the scale pinned at one, so the standardized curve coincides with the
    Weibull family's; the one-parameter estimation and auxiliary laws are
    handled specially wherever it matters.
    """

    name = "exponential"
    kappa1 = -EULER_GAMMA
    kappa2 = SEV_KAPPA2

    cdf = Weibull.cdf
    sf = Weibull.sf
    pdf = Weibull.pdf
    quantile = Weibull.quantile
    isf = Weibull.isf
    sample_standardized = Weibull.sample_standardized


class Generic(LifetimeFamily):
    """Caller-supplied log-location-scale family.

    The moment constants must be supplied rather than estimated: the transform
    law is exact only with the true population (kappa1, kappa2).  ``pdf`` is
    optional; when absent it is obtained by central differences of the CDF.
    Callables must accept numpy arrays.  Each call hands them a private float
    copy of its argument, so a callable may write into its input without
    touching the caller's array.
    """

    def __init__(self, cdf, quantile, sample, kappa1, kappa2,
                 pdf: Optional[Callable] = None, sf: Optional[Callable] = None,
                 isf: Optional[Callable] = None, name: str = "generic"):
        if not np.isfinite(kappa1):
            raise ValueError("kappa1 must be finite")
        if not (np.isfinite(kappa2) and kappa2 > 0):
            raise ValueError("kappa2 must be positive")
        self.name = name
        self.kappa1 = float(kappa1)
        self.kappa2 = float(kappa2)
        self._cdf = cdf
        self._quantile = quantile
        self._sample = sample
        self._pdf = pdf
        self._sf = sf
        self._isf = isf

    def cdf(self, x):
        return self._cdf(np.array(x, dtype=float))

    def sf(self, x):
        if self._sf is not None:
            return self._sf(np.array(x, dtype=float))
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        if self._pdf is not None:
            return self._pdf(np.array(x, dtype=float))
        x = np.asarray(x, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        return (self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h)

    def quantile(self, p):
        return self._quantile(_check_prob(np.array(p, dtype=float)))

    def isf(self, q):
        if self._isf is not None:
            return self._isf(_check_prob(np.array(q, dtype=float)))
        return self.quantile(1.0 - _check_prob(q))

    def sample_standardized(self, shape, rng):
        return self._sample(shape, rng)

    def __repr__(self):
        return f"Generic(name={self.name!r})"


WEIBULL = Weibull()
LOGNORMAL = LogNormal()
EXPONENTIAL = Exponential()

_FAMILIES = {
    "weibull": WEIBULL,
    "lognormal": LOGNORMAL,
    "exponential": EXPONENTIAL,
}


def family_from_name(name: str) -> LifetimeFamily:
    try:
        return _FAMILIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}"
        ) from None


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    return p


@dataclass(frozen=True)
class ComponentModel:
    """Lifetime model of one component.

    Two-parameter families store the log-lifetime location ``mu`` and scale
    ``sigma`` (> 0); the exponential stores its rate in their place.
    """

    family: LifetimeFamily
    mu: Optional[float] = None
    sigma: Optional[float] = None
    rate: Optional[float] = None

    def __post_init__(self):
        if isinstance(self.family, Exponential):
            if self.rate is None or not (np.isfinite(self.rate) and self.rate > 0):
                raise ValueError("exponential model needs rate > 0")
            if self.mu is not None or self.sigma is not None:
                raise ValueError("exponential model takes only a rate")
        else:
            if self.rate is not None:
                raise ValueError(f"{self.family.name} model takes (mu, sigma), not a rate")
            if self.mu is None or not np.isfinite(self.mu):
                raise ValueError("mu must be finite")
            if self.sigma is None or not (np.isfinite(self.sigma) and self.sigma > 0):
                raise ValueError("sigma must be > 0 (degenerate scale rejected)")


def component_reliability(model: ComponentModel, t) -> "float | np.ndarray":
    """P(T > t) for the component: 1 - F((log t - mu) / sigma), exp(-rate*t) for exponentials."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("mission time t must be > 0")
    if isinstance(model.family, Exponential):
        out = np.exp(-model.rate * t)
    else:
        out = model.family.sf((np.log(t) - model.mu) / model.sigma)
    return float(out) if np.ndim(out) == 0 else out


def sample_lifetimes(model: ComponentModel, n: int, rng=None) -> np.ndarray:
    """Draw ``n`` failure times from the model."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = generator(rng)
    if isinstance(model.family, Exponential):
        return rng.standard_exponential(n) / model.rate
    z = model.family.sample_standardized(n, rng)
    return np.exp(model.mu + model.sigma * z)


def time_at_reliability(model: ComponentModel, r: float) -> float:
    """Mission time at which the component reliability equals ``r``."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly inside (0, 1)")
    if isinstance(model.family, Exponential):
        return -math.log(r) / model.rate
    return float(np.exp(model.mu + model.sigma * model.family.isf(r)))


def standardized_cdf(family: LifetimeFamily, x):
    return family.cdf(x)


def standardized_quantile(family: LifetimeFamily, p):
    return family.quantile(p)


def population_moments(family: LifetimeFamily):
    """(kappa1, kappa2): population mean and SD of the standardized distribution."""
    return family.kappa1, family.kappa2
