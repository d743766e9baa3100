"""Auxiliary statistics and the reliability transform.

The sampling law of the moment-based reliability estimate depends on the
unknown parameters only through the true reliability, so a resampled
estimate can be produced directly from the current reliability value plus an
auxiliary pair (zbar, m): the sample mean and SD of n standardized draws.
This replaces dataset resampling and re-estimation inside the bootstrap
layers.

For log-normal components the pair has an exact closed-form joint law
(independent Normal(0, 1/n) and a scaled chi-square), which is what we draw
by default; ``paper_literal=True`` reproduces the published recipe built
from t and chi-square variates instead, for comparison experiments.  For
exponential components the auxiliary reduces to a single Gamma(n, 1/n)
statistic with zbar fixed at zero.
"""

from __future__ import annotations

import numpy as np

from .distributions import Exponential, LifetimeFamily, LogNormal
from .rng import generator

__all__ = [
    "gen_aux_batch",
    "transform_w",
    "transform_logr",
    "transform_scale",
    "log_hazard_slope",
]


def gen_aux_batch(family: LifetimeFamily, n: int, size: int, rng=None,
                  paper_literal: bool = False):
    """Draw ``size`` independent auxiliary pairs; returns (z_bar, m) arrays.

    General log-location-scale families are handled by brute sampling: n
    standardized draws per pair, reduced to their mean and (n-1)-divisor SD.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = generator(rng)
    if isinstance(family, Exponential):
        if n < 1:
            raise ValueError("exponential auxiliary needs n >= 1")
        m = rng.gamma(shape=n, scale=1.0 / n, size=size)
        return np.zeros(size), m
    if n < 2:
        raise ValueError("two-parameter auxiliary needs n >= 2")
    if isinstance(family, LogNormal):
        if paper_literal:
            t = rng.standard_t(n - 1, size=size)
            u = rng.chisquare(n - 1, size=size)
            m = np.sqrt((n - 1) / u)
            return t * m, m
        z_bar = rng.normal(0.0, 1.0 / np.sqrt(n), size=size)
        m = np.sqrt(rng.chisquare(n - 1, size=size) / (n - 1))
        return z_bar, m
    draws = family.sample_standardized((size, n), rng)
    return draws.mean(axis=1), draws.std(axis=1, ddof=1)


def transform_w(family: LifetimeFamily, w, z_bar, m, out=None):
    """The reliability transform on the standardized-quantile scale.

    With w = F^{-1}(1 - r), the transformed reliability is sf(w') where
    w' = (w - z_bar) * (kappa2 / m) + kappa1.  Keeping intermediate values on
    this scale preserves precision for r near 1 and makes nested transforms
    a plain affine composition.  The arguments broadcast; the result is
    written into ``out`` when given, else into a new array.
    """
    if out is None:
        out = np.empty(np.broadcast(w, z_bar, m).shape)
    np.subtract(w, z_bar, out=out)
    np.multiply(out, family.kappa2 / m, out=out)
    return np.add(out, family.kappa1, out=out)


def transform_logr(log_r, m, out=None):
    """Exponential-family transform on the log-reliability scale: log r / m."""
    return np.divide(log_r, m, out=out)


def transform_scale(family: LifetimeFamily, v, z_bar, m, out=None):
    """The transform on the family's scale (see ``LifetimeFamily.scale``).

    Exponential log reliabilities go through :func:`transform_logr`, which
    ignores ``z_bar``; the standardized quantiles of every other family go
    through :func:`transform_w`.
    """
    if isinstance(family, Exponential):
        return transform_logr(v, m, out)
    return transform_w(family, v, z_bar, m, out)


def log_hazard_slope(family: LifetimeFamily, m):
    """How much :func:`transform_scale` scales a log hazard, per auxiliary ``m``.

    Only for families with a ``log_hazard``.  A Weibull's log hazard is its
    scale value w, which :func:`transform_w` multiplies by kappa2/m; an
    exponential's is log(-v), which :func:`transform_logr` shifts by -log m.
    """
    if isinstance(family, Exponential):
        return np.ones_like(m)
    return family.kappa2 / m
