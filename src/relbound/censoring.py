"""Type-II right censoring: generation and imputation.

A Type-II experiment stops after a predefined number of failures; the
remaining units are censored at the last observed failure time.  Censored
datasets are completed by fitting the censored MLE and replacing each
censored row with the conditional mean of the log lifetime given exceedance
(exponentials use the time-scale conditional mean, by memorylessness), after
which the complete-data pipeline applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .distributions import Exponential, LifetimeFamily, LogNormal, censoring_flags, failure_times
from .errors import EstimationError
from .estimators import mle_fit
from .selection import ceil_index

__all__ = ["CensoredDataset", "type2_censor", "censoring_count", "impute", "IMPUTE_MODES"]

IMPUTE_MODES = ("mean", "quantile")


@dataclass(frozen=True)
class CensoredDataset:
    """Rows of (time, indicator) with indicator 1 marking a censored unit.

    Type-II structure is enforced: every censored row carries the largest
    observed failure time, and at least one failure was observed.
    """

    times: np.ndarray
    censored: np.ndarray

    def __post_init__(self):
        times = failure_times(self.times)
        mask = censoring_flags(self.censored, times.size)
        if mask.all():
            raise ValueError("need at least one observed failure")
        if mask.any():
            t_max = times[~mask].max()
            if not np.all(times[mask] == t_max):
                raise ValueError(
                    "Type-II censoring requires every censored row to sit at the "
                    "largest observed failure time"
                )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "censored", mask)

    @property
    def n_observed(self) -> int:
        return int((~self.censored).sum())


def type2_censor(times, n_tilde: int) -> CensoredDataset:
    """Stop the experiment after ``n_tilde`` failures.

    The smallest ``n_tilde`` times are kept as observed failures; the rest are
    censored at the ``n_tilde``-th order statistic.
    """
    times = np.sort(np.asarray(times, dtype=float))
    n = times.size
    if not 1 <= n_tilde <= n:
        raise ValueError(f"n_tilde must lie in 1..{n}, got {n_tilde}")
    out = times.copy()
    out[n_tilde:] = times[n_tilde - 1]
    mask = np.zeros(n, dtype=bool)
    mask[n_tilde:] = True
    return CensoredDataset(out, mask)


def censoring_count(n: int, fraction: float) -> int:
    """Observed-failure count for a target censoring fraction: ceil((1-f)*n)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("censoring fraction must lie in [0, 1)")
    return max(1, ceil_index((1.0 - fraction) * n))


def _conditional_mean_exceedance(family: LifetimeFamily, a: float) -> float:
    """E[Z | Z > a] for the standardized distribution."""
    if isinstance(family, LogNormal):
        # Mills ratio, phi(a) / (1 - Phi(a))
        tail = float(family.sf(np.asarray(a)))
        return float(family.pdf(np.asarray(a))) / tail
    tail = float(family.sf(np.asarray(a)))
    if tail <= 0.0:
        raise EstimationError("censoring point is beyond the support of the fitted model")
    num, _ = quad(lambda z: z * float(family.pdf(np.asarray(z))), a, np.inf,
                  epsabs=1e-12, epsrel=1e-10, limit=200)
    return num / tail


def impute(family: LifetimeFamily, censored: CensoredDataset,
           mode: str = "mean") -> np.ndarray:
    """Complete a censored dataset; returns the n imputed failure times.

    Fits the censored MLE, then replaces censored rows with the conditional
    mean of the log lifetime given exceedance of the censoring point
    (``mode="mean"``), or with equally spaced conditional exceedance
    quantiles (``mode="quantile"``) for sensitivity studies.  Imputed values
    strictly exceed the censoring time; a dataset without censored rows is
    returned unchanged.  Imputed times that ``failure_times`` refuses, such
    as an overflow to inf, raise ``EstimationError``.
    """
    if mode not in IMPUTE_MODES:
        raise ValueError(f"mode must be one of {list(IMPUTE_MODES)}")
    times = censored.times
    mask = censored.censored
    if not mask.any():
        return times.copy()
    fit = mle_fit(family, times, mask)
    out = times.copy()
    x_c = float(times[mask][0])
    c = int(mask.sum())
    if isinstance(family, Exponential):
        if mode == "mean":
            # memorylessness: E[T | T > x_c] = x_c + 1/rate
            out[mask] = x_c + 1.0 / fit.rate_hat
        else:
            q = (np.arange(1, c + 1)) / (c + 1.0)
            out[mask] = x_c - np.log1p(-q) / fit.rate_hat
    else:
        a = (math.log(x_c) - fit.mu_hat) / fit.sigma_hat
        if mode == "mean":
            z = np.full(c, _conditional_mean_exceedance(family, a))
        else:
            q = np.arange(1, c + 1) / (c + 1.0)
            tail = float(family.sf(np.asarray(a)))
            z = family.quantile(1.0 - tail * (1.0 - q))
        out[mask] = np.exp(fit.mu_hat + fit.sigma_hat * np.asarray(z))
    try:
        return failure_times(out)
    except ValueError as exc:
        # a censoring time near the float limit can impute times past it
        raise EstimationError(f"imputed dataset refused: {exc}") from None

