"""Log-location-scale lifetime families and component lifetime models.

A family carries the standardized CDF of the log lifetime together with its
population mean and standard deviation (kappa1, kappa2), which drive the
moment estimators and the reliability transform.  Weibull lifetimes put a
smallest-extreme-value distribution on the log scale; log-normal lifetimes a
standard normal.

Each family also states its parameter names (``params``) and its scale: the
value ``scale(t, **params)`` whose image under ``reliability`` is the
component reliability at time t, and which the auxiliary transform maps
affinely.  Two-parameter families use (mu, sigma) and the standardized
quantile w = (log t - mu)/sigma with reliability sf(w).  The exponential is
the one-parameter case: it uses the rate and the log reliability -rate*t.
It is a Weibull subclass, whose standardized law (cdf, sf, pdf, quantiles,
draws and moment constants) it inherits unchanged, with the scale pinned at
one.  Beyond these attributes it differs in three places: its auxiliary law (a
single gamma statistic, in ``resampling``), its likelihood, MLE and
information (in ``estimators``), and its imputation by memorylessness (in
``censoring``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import EstimationError
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
    "censoring_flags",
    "failure_times",
    "mission_grid",
    "mission_times",
    "sample_lifetimes",
    "time_at_reliability",
]

EULER_GAMMA = float(np.euler_gamma)


class LifetimeFamily:
    """Standardized log-lifetime distribution plus moment constants."""

    name: str = "abstract"
    kappa1: float
    kappa2: float
    params: tuple = ("mu", "sigma")

    def scale(self, t, mu, sigma):
        """Scale value of the reliability at times ``t``: w = (log t - mu) / sigma."""
        return (np.log(t) - mu) / sigma

    def reliability(self, v):
        """Reliability from scale values: sf(w)."""
        return self.sf(v)

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
    kappa2 = math.pi / math.sqrt(6.0)

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


class Exponential(Weibull):
    """Exponential lifetimes, parameterized by the rate lambda.

    On the log scale this is the unit smallest-extreme-value distribution with
    the scale pinned at one, so it inherits the Weibull family's standardized
    law.  Its one parameter is the rate, and its scale value is the log
    reliability -rate*t.
    """

    name = "exponential"
    params = ("rate",)

    def scale(self, t, rate):
        """Log reliability at times ``t``: -rate * t."""
        return -rate * t

    def reliability(self, v):
        """Reliability from log reliabilities: exp(v)."""
        return np.exp(v)


class Generic(LifetimeFamily):
    """Caller-supplied log-location-scale family.

    The moment constants must be supplied rather than estimated: the transform
    law is exact only with the true population (kappa1, kappa2).  ``pdf`` is
    optional: the bootstrap methods never read it, but the MLE, the
    information matrix and imputation (so delta and censored data) do, and
    without it they raise ``EstimationError``.
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
        if self._pdf is None:
            raise EstimationError(f"family {self.name!r} was built without a pdf, which the "
                                  "MLE, the information matrix and imputation need")
        return self._pdf(np.array(x, dtype=float))

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
    family = _FAMILIES.get(name.lower()) if isinstance(name, str) else None
    if family is None:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}")
    return family


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    return p


@dataclass(frozen=True)
class ComponentModel:
    """Lifetime model of one component.

    The model sets exactly the parameters its family lists in ``params``:
    the log-lifetime location ``mu`` and scale ``sigma`` (> 0) for
    two-parameter families, the rate (> 0) for the exponential.
    """

    family: LifetimeFamily
    mu: Optional[float] = None
    sigma: Optional[float] = None
    rate: Optional[float] = None

    def __post_init__(self):
        names = self.family.params
        extra = [f.name for f in fields(self) if f.name != "family"
                 and f.name not in names and getattr(self, f.name) is not None]
        if extra:
            raise ValueError(f"{self.family.name} model takes {names}, not {extra}")
        for name in names:
            value = getattr(self, name)
            if value is None or not np.isfinite(value):
                raise ValueError(f"{self.family.name} model needs a finite {name}")
            # every parameter but the location is a positive scale or rate
            if name != "mu" and value <= 0:
                raise ValueError(f"{name} must be > 0 (degenerate scale rejected)")

    @property
    def params(self) -> dict:
        """The parameters by name, in the order of ``family.params``."""
        return {name: getattr(self, name) for name in self.family.params}


def mission_times(t) -> np.ndarray:
    """``t`` as a float array, refused unless every time is positive and finite."""
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & (t < math.inf)).all():
        raise ValueError("mission time t must be positive and finite")
    return t


def mission_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array, refused unless it is a non-empty 1-D array of mission times."""
    t_grid = mission_times(t_grid)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    return t_grid


def failure_times(data, ndim: int = 1) -> np.ndarray:
    """Failure times as a float array, 1-D or with ``ndim=2`` also (rows, n); each positive and finite."""
    times = np.asarray(data, dtype=float)
    if times.ndim not in (1, ndim) or times.size == 0:
        raise ValueError("data must be a non-empty 1-D array of failure times"
                         + (", or a 2-D array of rows" if ndim == 2 else ""))
    if not ((times > 0.0) & (times < math.inf)).all():
        raise ValueError("failure times must be finite and > 0")
    return times


def censoring_flags(flags, n: int) -> np.ndarray:
    """Censoring flags as a mask of ``n`` rows, True marking a censored unit.

    Each flag is 0 or 1 (or a bool); ``None`` means that no unit is censored.
    """
    if flags is None:
        return np.zeros(n, dtype=bool)
    mask = np.asarray(flags)
    if mask.dtype.kind not in "biuf":
        mask = np.asarray(flags, dtype=object)  # each flag compared as given
    good = (mask == 0) | (mask == 1)
    if not good.all():
        raise ValueError(f"censored flags must be 0 or 1, got {mask[~good].tolist()[0]!r}")
    if mask.shape != (n,):
        raise ValueError(f"censored flags must align with the {n} failure times, "
                         f"got shape {mask.shape}")
    return mask.astype(bool)


def component_reliability(model, t) -> "float | np.ndarray":
    """P(T > t) for the component: ``family.reliability`` of its scale value at ``t``.

    ``model`` is a :class:`ComponentModel` or any fit with the same
    ``family`` and ``params``, such as a moment estimate.  Parameters that are
    arrays broadcast against ``t``.
    """
    t = mission_times(t)
    family = model.family
    out = family.reliability(family.scale(t, **model.params))
    return float(out) if np.ndim(out) == 0 else out


def sample_lifetimes(model: ComponentModel, n, rng=None) -> np.ndarray:
    """Draw ``n`` failure times from the model; ``n`` is a count or a shape.

    A shape such as ``(rows, n)`` draws the same values, in C order, as one
    call for their total count.  Draws that ``failure_times`` refuses, a time
    of 0 or inf, raise ``EstimationError``.
    """
    if np.any(np.asarray(n) < 1):
        raise ValueError("need n >= 1")
    rng = generator(rng)
    if isinstance(model.family, Exponential):
        draws = rng.standard_exponential(n) / model.rate
    else:
        draws = np.exp(model.mu + model.sigma * model.family.sample_standardized(n, rng))
    try:
        return failure_times(draws, ndim=2)
    except ValueError as exc:
        # extreme parameters can draw times of 0 or inf, which no fit accepts
        raise EstimationError(f"sampled dataset refused: {exc}") from None


def time_at_reliability(model: ComponentModel, r: float) -> float:
    """Mission time at which the component reliability equals ``r``."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly inside (0, 1)")
    if isinstance(model.family, Exponential):
        return -math.log(r) / model.rate
    return float(np.exp(model.mu + model.sigma * model.family.isf(r)))

