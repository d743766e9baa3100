"""Point estimation of component parameters and the delta-method LCL.

Moment estimation (the workhorse of the bootstrap paths) uses the sample
mean and SD of log lifetimes scaled by the family constants: sigma = s/kappa2,
mu = xbar - kappa1 * sigma.  Maximum likelihood backs the delta baseline: the
Weibull profile score is solved by a safeguarded Newton iteration, the
log-normal has closed forms, and right-censored rows contribute survival
factors to the likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtri

from .distributions import (
    EULER_GAMMA,
    Exponential,
    LifetimeFamily,
    LogNormal,
    Weibull,
    censoring_flags,
    component_reliability,
    failure_times,
    mission_grid,
)
from .errors import DegenerateSampleError, EstimationError
from .results import LclResult
from .structures import (StructureNode, check_component_lists, eval_reliability,
                         structure_partials)

__all__ = [
    "MomentEstimate",
    "MleEstimate",
    "moment_estimate",
    "mle_fit",
    "fisher_information",
    "observed_information",
    "check_delta_settings",
    "delta_lcl",
    "delta_curve",
]


@dataclass(frozen=True)
class MomentEstimate:
    """Moment-based parameter estimate for one component.

    The estimate of each parameter ``p`` in ``family.params`` is the field
    ``p_hat``; a row-by-row fit holds one array entry per row.
    """

    family: LifetimeFamily
    n: int
    mu_hat: Optional[float] = None
    sigma_hat: Optional[float] = None
    rate_hat: Optional[float] = None

    @property
    def params(self) -> dict:
        """The estimates by parameter name, in the order of ``family.params``."""
        return {name: getattr(self, f"{name}_hat") for name in self.family.params}

    def summary(self, estimator: str = "moment") -> dict:
        return {"family": self.family.name, "estimator": estimator, "n": self.n,
                **{f"{name}_hat": value for name, value in self.params.items()}}


class MleEstimate(MomentEstimate):
    """Maximum likelihood estimate; same record shape as the moment estimate."""

    def summary(self, estimator: str = "mle") -> dict:
        return super().summary(estimator)


def moment_estimate(family: LifetimeFamily, data) -> MomentEstimate:
    """Moment-based fit: sigma = s/kappa2 and mu = xbar - kappa1*sigma on log times.

    The sample SD uses the n-1 divisor.  Exponential data instead yield
    rate = n / sum(t), valid from n = 1; a rate that is not positive and
    finite, because the total time on test over- or underflows, raises
    ``EstimationError``.  A (rows, n) array is fitted row by row along its
    last axis, by the same arithmetic, and each estimate is then a (rows,)
    array; a 1-D dataset gives floats.
    """
    times = failure_times(data, ndim=2)
    n = times.shape[-1]
    if isinstance(family, Exponential):
        rate = n / times.sum(axis=-1)
        if not ((rate > 0.0) & (rate < math.inf)).all():
            raise EstimationError("exponential moment fit refused: the rate n / (total time "
                                  "on test) is not positive and finite")
        return MomentEstimate(family, n, rate_hat=_unwrap(rate))
    if n < 2:
        raise EstimationError("two-parameter families need n >= 2 observations")
    x = np.log(times)
    xbar = x.mean(axis=-1)
    s = x.std(axis=-1, ddof=1)
    if (s == 0.0).any():
        raise DegenerateSampleError("all log lifetimes identical; sample SD is zero")
    sigma = s / family.kappa2
    mu = xbar - family.kappa1 * sigma
    return MomentEstimate(family, n, mu_hat=_unwrap(mu), sigma_hat=_unwrap(sigma))


def _unwrap(value):
    """A float for the fit of one dataset, the (rows,) array for a row-by-row fit."""
    return float(value) if value.ndim == 0 else value


# --- likelihood ------------------------------------------------------------


def _log_pdf(family: LifetimeFamily, z: np.ndarray) -> np.ndarray:
    if isinstance(family, Weibull):
        return z - np.exp(z)
    if isinstance(family, LogNormal):
        return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    with np.errstate(divide="ignore"):
        return np.log(family.pdf(z))


def _log_sf(family: LifetimeFamily, z: np.ndarray) -> np.ndarray:
    if isinstance(family, Weibull):
        return -np.exp(z)
    if isinstance(family, LogNormal):
        return log_ndtr(-z)
    with np.errstate(divide="ignore"):
        return np.log(family.sf(z))


def loglik(family: LifetimeFamily, params, times, censored_mask=None) -> float:
    """Log likelihood of (possibly right-censored) failure times.

    Observed rows contribute the log lifetime density, censored rows the log
    survival probability at their censoring time.  ``params`` is (mu, sigma)
    for two-parameter families and the rate for exponentials.
    """
    times = failure_times(times)
    mask = censoring_flags(censored_mask, times.size)
    if isinstance(family, Exponential):
        rate = float(params[0]) if np.ndim(params) else float(params)
        if rate <= 0:
            return -math.inf
        d = int((~mask).sum())
        return d * math.log(rate) - rate * float(times.sum())
    mu, sigma = float(params[0]), float(params[1])
    if sigma <= 0:
        return -math.inf
    x = np.log(times)
    z = (x - mu) / sigma
    total = 0.0
    if np.any(~mask):
        zo = z[~mask]
        total += float(np.sum(_log_pdf(family, zo))) - (~mask).sum() * math.log(sigma) - float(x[~mask].sum())
    if np.any(mask):
        total += float(np.sum(_log_sf(family, z[mask])))
    return total


# --- maximum likelihood ----------------------------------------------------


def _weibull_profile_shape(y: np.ndarray, mask: np.ndarray, k0: float,
                           tol: float = 1e-10, max_iter: int = 100) -> float:
    """Root of the profiled Weibull shape score, censored rows included.

    h(k) = sum(w*y)/sum(w) - 1/k - mean(y_uncensored), w = t^k, is strictly
    increasing in k, so Newton steps are kept inside a sign-change bracket.
    """
    y_unc = y[~mask]
    c = float(y_unc.mean())
    if float(y.max()) - c <= 0.0:
        raise DegenerateSampleError("no spread in log lifetimes; Weibull shape unbounded")

    def h_and_slope(k):
        w = np.exp(k * y - np.max(k * y))
        s0 = float(w.sum())
        mean_w = float((w * y).sum()) / s0
        var_w = float((w * y * y).sum()) / s0 - mean_w * mean_w
        return mean_w - 1.0 / k - c, var_w + 1.0 / (k * k)

    lo = hi = max(k0, 1e-8)
    for _ in range(200):
        if h_and_slope(lo)[0] <= 0.0:
            break
        lo /= 2.0
    else:
        raise EstimationError("failed to bracket the Weibull shape from below")
    for _ in range(200):
        if h_and_slope(hi)[0] >= 0.0:
            break
        hi *= 2.0
    else:
        raise EstimationError("failed to bracket the Weibull shape from above")

    k = min(max(k0, lo), hi)
    for _ in range(max_iter):
        h, slope = h_and_slope(k)
        if h > 0.0:
            hi = k
        else:
            lo = k
        step = h / slope
        k_new = k - step
        if not lo <= k_new <= hi:
            k_new = 0.5 * (lo + hi)
        if abs(k_new - k) <= tol * max(1.0, k):
            return k_new
        k = k_new
    raise EstimationError(f"Weibull shape Newton did not converge in {max_iter} iterations")


def _weibull_mle(family, times, mask) -> MleEstimate:
    y = np.log(times)
    y_unc = y[~mask]
    s_unc = float(y_unc.std(ddof=1))
    # moment-based shape as the Newton starting point
    k0 = family.kappa2 / s_unc if s_unc > 0.0 else 1.0
    if not np.isfinite(k0) or k0 <= 0:
        k0 = 1.0
    k = _weibull_profile_shape(y, mask, k0)
    d = int((~mask).sum())
    shifted = k * y - np.max(k * y)
    mu = (np.max(k * y) + math.log(float(np.exp(shifted).sum()) / d)) / k
    return MleEstimate(family, times.size, mu_hat=float(mu), sigma_hat=1.0 / k)


def _numeric_mle(family, times, mask) -> MleEstimate:
    y_unc = np.log(times[~mask])
    mu0 = float(y_unc.mean())
    s0 = float(y_unc.std(ddof=0))
    s0 = max(s0, 1e-3)

    def nll(theta):
        return -loglik(family, (theta[0], math.exp(theta[1])), times, mask)

    res = minimize(nll, x0=np.array([mu0, math.log(s0)]), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
    if not res.success:
        raise EstimationError(f"MLE failed to converge: {res.message}")
    return MleEstimate(family, times.size, mu_hat=float(res.x[0]),
                       sigma_hat=float(math.exp(res.x[1])))


def mle_fit(family: LifetimeFamily, data, censored_mask=None) -> MleEstimate:
    """Maximum likelihood fit, with optional right-censoring indicators.

    Log-normal complete data use the closed form (log-mean, n-divisor SD);
    Weibull fits profile the shape by safeguarded Newton (tolerance 1e-10,
    at most 100 iterations) with a numeric fallback; exponential data give
    rate = failures / total time on test.
    """
    times = failure_times(data)
    mask = censoring_flags(censored_mask, times.size)
    d = int((~mask).sum())
    if isinstance(family, Exponential):
        if d < 1:
            raise EstimationError("exponential MLE needs at least one failure")
        total = float(times.sum())
        if total == math.inf:
            raise EstimationError("exponential MLE: the total time on test overflows")
        return MleEstimate(family, times.size, rate_hat=d / total)
    if d < 2:
        raise EstimationError("two-parameter MLE needs >= 2 uncensored observations")
    if isinstance(family, LogNormal) and not mask.any():
        x = np.log(times)
        sigma = float(x.std(ddof=0))
        if sigma == 0.0:
            raise DegenerateSampleError("all log lifetimes identical; sample SD is zero")
        return MleEstimate(family, times.size, mu_hat=float(x.mean()), sigma_hat=sigma)
    if isinstance(family, Weibull):
        try:
            return _weibull_mle(family, times, mask)
        except EstimationError:
            return _numeric_mle(family, times, mask)
    return _numeric_mle(family, times, mask)


# --- information matrices --------------------------------------------------

_SEV_I11 = 1.0
_SEV_I12 = 1.0 - EULER_GAMMA
_SEV_I22 = (1.0 - EULER_GAMMA) ** 2 + math.pi ** 2 / 6.0


def _generic_unit_information(family: LifetimeFamily) -> np.ndarray:
    """Per-observation information at (mu, sigma) = (0, 1), by quadrature."""

    def lprime(z):
        h = 1e-5 * max(1.0, abs(z))
        return (float(_log_pdf(family, np.asarray(z + h)))
                - float(_log_pdf(family, np.asarray(z - h)))) / (2.0 * h)

    def entry(weight_fn):
        def integrand(z):
            dens = float(family.pdf(np.asarray(z)))
            if not np.isfinite(dens):
                # a density that overflowed where the law has no mass is no mass;
                # anywhere else the pdf is broken and the integral would be wrong
                tail = min(float(family.cdf(z)), float(family.sf(z)))
                if not tail <= 1e-300:
                    raise EstimationError(f"pdf of family {family.name!r} is not finite at "
                                          f"z={z:.6g}, inside the law's support")
                return 0.0
            if dens <= 1e-300:
                return 0.0  # outside the effective support; no mass, no score
            return weight_fn(z) * dens

        val, _ = quad(integrand, -np.inf, np.inf, epsrel=1e-8, limit=200)
        return val

    a11 = entry(lambda z: lprime(z) ** 2)
    a12 = entry(lambda z: lprime(z) * (1.0 + z * lprime(z)))
    a22 = entry(lambda z: (1.0 + z * lprime(z)) ** 2)
    return np.array([[a11, a12], [a12, a22]])


def fisher_information(fit, n: int) -> np.ndarray:
    """Expected information for an n-observation sample, in (mu, sigma) order.

    ``fit`` is a :class:`ComponentModel` or an estimate, read through its
    ``family`` and ``params``.  Exponential fits give the 1x1 matrix
    n / rate^2.  Generic families are integrated numerically (score outer
    products, relative tolerance 1e-8).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    family, params = fit.family, fit.params
    if isinstance(family, Exponential):
        with np.errstate(over="ignore", divide="ignore"):  # a rate this far out is refused
            info = np.array([[n / np.float64(params["rate"]) ** 2]])
    elif isinstance(family, LogNormal):
        info = n / params["sigma"] ** 2 * np.array([[1.0, 0.0], [0.0, 2.0]])
    elif isinstance(family, Weibull):
        info = n / params["sigma"] ** 2 * np.array([[_SEV_I11, _SEV_I12], [_SEV_I12, _SEV_I22]])
    else:
        info = n / params["sigma"] ** 2 * _generic_unit_information(family)
    _require_nonsingular(info)
    return info


def observed_information(estimate: MomentEstimate, times, censored_mask=None) -> np.ndarray:
    """Observed information: minus the numerical Hessian of the log likelihood.

    Central differences with relative step 1e-5, evaluated at the fitted
    parameters.  This is the information used by the censored delta method.
    """
    times = failure_times(times)
    mask = censoring_flags(censored_mask, times.size)
    theta = np.array(list(estimate.params.values()))

    def f(th):
        return loglik(estimate.family, th, times, mask)

    p = theta.size
    h = 1e-5 * np.maximum(1.0, np.abs(theta))
    hess = np.empty((p, p))
    f0 = f(theta)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        hess[i, i] = (f(theta + ei) - 2.0 * f0 + f(theta - ei)) / h[i] ** 2
        for j in range(i + 1, p):
            ej = np.zeros(p)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(theta + ei + ej) - f(theta + ei - ej)
                - f(theta - ei + ej) + f(theta - ei - ej)
            ) / (4.0 * h[i] * h[j])
    info = -hess
    _require_nonsingular(info)
    return info


def _require_nonsingular(info: np.ndarray) -> None:
    # cholesky does not raise on NaN, which quadrature can return
    if not np.all(np.isfinite(info)):
        raise EstimationError("information matrix is not finite")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise EstimationError("information matrix is singular or not positive definite") from None


# --- delta method ----------------------------------------------------------


def _reliability_gradient(estimate, t) -> np.ndarray:
    """Gradient of the component reliability w.r.t. the fitted parameters."""
    if isinstance(estimate.family, Exponential):
        lam = estimate.rate_hat
        return np.array([-t * math.exp(-lam * t)])
    w = (math.log(t) - estimate.mu_hat) / estimate.sigma_hat
    dens = float(estimate.family.pdf(np.asarray(w)))
    return np.array([dens / estimate.sigma_hat, dens * w / estimate.sigma_hat])


def _delta_fit(families, datasets, censored_masks=None):
    masks = censored_masks if censored_masks is not None else [None] * len(families)
    fitted = []
    for family, data, mask in zip(families, datasets, masks):
        times = failure_times(data)
        mask = censoring_flags(mask, times.size)
        est = mle_fit(family, times, mask)
        info = (observed_information(est, times, mask) if mask.any()
                else fisher_information(est, times.size))
        fitted.append((est, info))
    return fitted


def _delta_raw(fitted, t, partials, r_system, alpha, form) -> float:
    """The LCL at time ``t`` from psi there (``r_system``) and its (s,) ``partials``."""
    var = 0.0
    for i, (est, info) in enumerate(fitted):
        grad = partials[i] * _reliability_gradient(est, t)
        try:
            var += float(grad @ np.linalg.solve(info, grad))
        except np.linalg.LinAlgError:
            raise EstimationError("singular information in delta variance") from None
    if not math.isfinite(var):
        raise EstimationError(f"delta standard error at t={t!r} is not finite")
    se = math.sqrt(max(var, 0.0))
    z = float(ndtri(1.0 - alpha))
    if form == "paper":
        return 2.0 * r_system - z * se
    return r_system - z * se


def check_delta_settings(alpha) -> None:
    """Refuse the settings every delta-method LCL would refuse."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")


def _delta_at(structure, families, datasets, times, alpha, form, censored_masks):
    """One MLE fit, then ``(raw, r_hat)`` at each time; the checks of ``delta_lcl``.

    psi and its partials are evaluated at every time in one call each.
    """
    check_delta_settings(alpha)
    times = mission_grid(times)
    if form not in ("paper", "standard"):
        raise ValueError("form must be 'paper' or 'standard'")
    check_component_lists(structure, families, datasets)
    fitted = _delta_fit(families, datasets, censored_masks)
    r_hats = [component_reliability(est, times) for est, _ in fitted]
    r_system = eval_reliability(structure, r_hats).tolist()
    partials = structure_partials(structure, r_hats).T
    return fitted, [(_delta_raw(fitted, t, p, r, alpha, form), r)
                    for t, p, r in zip(times.tolist(), partials, r_system)]


def delta_lcl(structure: StructureNode, families: Sequence[LifetimeFamily],
              datasets, t: float, alpha: float = 0.1, *, form: str = "paper",
              censored_masks=None) -> LclResult:
    """Delta-method lower confidence limit from per-component MLE fits.

    The variance combines per-component information blocks through the chain
    rule: var = sum_i (dpsi/dr_i * grad_theta r_i)' I_i^{-1} (...), with I_i
    the full-sample expected information (observed information when the
    component data carry censoring).

    ``form`` selects the published display ``2*R - z*se`` ("paper", the
    default, which reproduces the reference falling-outside behaviour) or the
    textbook one-sided limit ``R - z*se`` ("standard").
    """
    fitted, [(raw, r_hat)] = _delta_at(structure, families, datasets, [t], alpha, form,
                                       censored_masks)
    return LclResult(method="delta" if form == "paper" else "delta-standard", raw_value=raw,
                     r_hat=r_hat, component_estimates=[est.summary() for est, _ in fitted],
                     t=t, alpha=alpha, percentile=False)


def delta_curve(structure: StructureNode, families: Sequence[LifetimeFamily],
                datasets, t_grid, alpha: float = 0.1, *, form: str = "paper",
                censored_masks=None) -> np.ndarray:
    """Delta-method LCL at every time of ``t_grid``, from one set of MLE fits.

    Entry g equals ``delta_lcl(..., t_grid[g], ...).raw_value``; inputs are
    checked as ``delta_lcl`` checks them.
    """
    _, rows = _delta_at(structure, families, datasets, t_grid, alpha, form, censored_masks)
    return np.array([raw for raw, _ in rows])
