"""Bootstrap lower confidence limits for system reliability.

Four procedures: the percentile (bp) and basic (bb) parametric bootstraps,
the double bootstrap percentile with transformed resamples (dbpt), and the
conventional nested double bootstrap (dbp) kept as a slow oracle.

The bootstrap paths run on moment estimates.  Resampled component
reliabilities are produced by the auxiliary-statistic transform rather than
by dataset resampling; internally everything stays on the
standardized-quantile scale (log-reliability scale for exponentials), where
the nested transform is a plain affine map, and probabilities are
materialized only to evaluate the structure function.

The dbpt second layer (B first-layer rows times C shared auxiliary pairs per
component) is evaluated in blocks of first-layer rows through preallocated
buffers, so its working memory is O(s * rows * C) with rows * C near 2**15,
whatever B is.  ``dbpt_lcl`` and the LCL-versus-time curve share that one
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Exponential, LifetimeFamily
from .errors import EstimationError
from .estimators import moment_estimate
from .rng import generator, seed_entropy
from .resampling import gen_aux_batch, transform_logr, transform_w
from .results import LclResult, make_result
from .selection import ceil_div, ceil_index, kth_smallest
from .structures import StructureNode, _eval, num_components

__all__ = ["LclResult", "bp_lcl", "bb_lcl", "dbpt_lcl", "dbp_lcl_oracle"]

_LAYER_ONE = 1
_LAYER_TWO = 2


@dataclass
class _Fitted:
    family: LifetimeFamily
    estimate: object
    n: int
    is_exp: bool
    base: float  # w0 = (log t - mu)/sigma, or log r for exponentials
    r_hat: float


def _fit_components(structure, families, datasets, t):
    s = num_components(structure)
    if len(families) != s or len(datasets) != s:
        raise ValueError(f"structure has {s} components; families/datasets must match")
    t = float(t)
    if t <= 0:
        raise ValueError("mission time t must be > 0")
    comps = []
    for family, data in zip(families, datasets):
        est = moment_estimate(family, data)
        if isinstance(family, Exponential):
            base = -est.rate_hat * t
            r_hat = float(np.exp(base))
            comps.append(_Fitted(family, est, est.n, True, base, r_hat))
        else:
            base = (np.log(t) - est.mu_hat) / est.sigma_hat
            r_hat = float(family.sf(base))
            comps.append(_Fitted(family, est, est.n, False, base, r_hat))
    r_system = float(_eval(structure, [c.r_hat for c in comps]))
    return comps, r_system


def _materialize(comp: _Fitted, vals: np.ndarray) -> np.ndarray:
    return np.exp(vals) if comp.is_exp else comp.family.sf(vals)


def _boundary_hits(r: np.ndarray) -> int:
    return int(((r == 0.0) | (r == 1.0)).sum())


def _layer_values(comp: _Fitted, base, size: int, rng, paper_literal: bool):
    """One transform layer: returns the new scale values and the aux pair."""
    z_bar, m = gen_aux_batch(comp.family, comp.n, size, rng, paper_literal)
    if comp.is_exp:
        return transform_logr(base, m), (z_bar, m)
    return transform_w(comp.family, base, z_bar, m), (z_bar, m)


def _first_layer(comps, structure, B, rng, paper_literal):
    vals_list, r_list, hits = [], [], 0
    for i, comp in enumerate(comps):
        vals, _ = _layer_values(comp, comp.base, B, generator(rng, _LAYER_ONE, i), paper_literal)
        r = _materialize(comp, vals)
        hits += _boundary_hits(r)
        vals_list.append(vals)
        r_list.append(r)
    r_star = np.asarray(_eval(structure, r_list))
    return vals_list, r_star, hits


def _check_common(structure, alpha, B):
    num_components(structure)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if B < ceil_index(1.0 / alpha):
        raise ValueError(f"B must be at least ceil(1/alpha) = {ceil_index(1.0 / alpha)}")


def bp_lcl(structure: StructureNode, families, datasets, t, alpha: float = 0.1,
           B: int = 1000, rng=None, *, paper_literal_aux: bool = False) -> LclResult:
    """Bootstrap percentile LCL: the ceil(B*alpha)-th smallest bootstrap reliability.

    Bootstrap reliabilities are generated through the auxiliary transform,
    which is identical in law to resampling each component dataset from its
    fitted model and re-estimating.
    """
    _check_common(structure, alpha, B)
    comps, r_hat = _fit_components(structure, families, datasets, t)
    _, r_star, hits = _first_layer(comps, structure, B, rng, paper_literal_aux)
    k = ceil_index(B * alpha)
    lcl = kth_smallest(r_star, k)
    return make_result(
        "bp", lcl, r_hat, t, alpha, B=B, seed=seed_entropy(rng),
        boundary_hits=hits, ties=int((r_star == lcl).sum()) - 1,
        component_estimates=[c.estimate.summary() for c in comps],
    )


def bb_lcl(structure: StructureNode, families, datasets, t, alpha: float = 0.1,
           B: int = 1000, rng=None, *, paper_literal_aux: bool = False) -> LclResult:
    """Basic bootstrap LCL: 2*R_hat - (ceil(B*(1-alpha))-th smallest bootstrap value).

    The raw value may leave [0, 1]; it is reported as-is with the
    ``fell_outside`` flag and a clamped companion.
    """
    _check_common(structure, alpha, B)
    comps, r_hat = _fit_components(structure, families, datasets, t)
    _, r_star, hits = _first_layer(comps, structure, B, rng, paper_literal_aux)
    upper = kth_smallest(r_star, ceil_index(B * (1.0 - alpha)))
    raw = 2.0 * r_hat - upper
    return make_result(
        "bb", raw, r_hat, t, alpha, percentile=False, B=B, seed=seed_entropy(rng),
        boundary_hits=hits, ties=int((r_star == upper).sum()) - 1,
        component_estimates=[c.estimate.summary() for c in comps],
    )


def _select_dbpt(r_star: np.ndarray, u_counts: np.ndarray, B: int, C: int, alpha: float):
    """Shared final selection: k = ceil(B*alpha), k' = ceil(B * u_(k)) clamped to [1, B].

    u values are carried as integer counts out of C so the index arithmetic
    is exact.  k' = 0 can occur when u_(k) = 0; clamping to 1 returns the
    smallest first-layer value, the conservative direction.
    """
    k = ceil_index(B * alpha)
    u_k = int(np.partition(u_counts, k - 1)[k - 1])
    k_prime = min(B, max(1, ceil_div(B * u_k, C)))
    return kth_smallest(r_star, k_prime), u_k, k, k_prime


# Elements per second-layer block: rows * C stays near 2**15 doubles (256 KiB),
# so each component's block fits in cache between the affine map and sf.
_BLOCK_ELEMS = 2 ** 15


def _second_layer(structure, comps, vals1, aux2, r_hat, diagnostics=True):
    """Per first-layer row j, how many of the C second-layer system values are <= r_hat.

    Row j of component i transforms ``vals1[i][j]`` by each of the C shared
    auxiliary pairs ``aux2[i]``.  Rows are processed in blocks of
    ``max(1, 2**15 // C)``; the affine map of each component is written into one
    reused (rows, C) buffer, so peak memory is O(s * rows * C) instead of
    O(s * B * C).  Each element goes through the same numpy operations as the
    unblocked map, so the counts are bit-identical to it.

    Returns ``(u_counts, boundary_hits, ties)``: the int64 counts per row,
    second-layer component values equal to 0 or 1, and system values equal to
    ``r_hat``.  The last two are 0 when ``diagnostics`` is false.
    """
    B, C = vals1[0].shape[0], aux2[0][1].shape[0]
    rows = max(1, _BLOCK_ELEMS // C)
    buf = np.empty((min(rows, B), C))
    scales = [None if comp.is_exp else comp.family.kappa2 / m2
              for comp, (_, m2) in zip(comps, aux2)]
    u_counts = np.empty(B, dtype=np.int64)
    hits = ties = 0
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        block = buf[: hi - lo]
        r2_list = []
        for comp, v1, (z2, m2), scale in zip(comps, vals1, aux2, scales):
            col = v1[lo:hi, None]
            if comp.is_exp:
                np.divide(col, m2, out=block)
                r2 = np.exp(block)
            else:
                np.subtract(col, z2, out=block)
                np.multiply(block, scale, out=block)
                np.add(block, comp.family.kappa1, out=block)
                r2 = comp.family.sf(block)
                if np.may_share_memory(r2, buf):  # a Generic sf may hand its input back
                    r2 = r2.copy()
            if diagnostics:
                hits += _boundary_hits(r2)
            r2_list.append(r2)
        r_2star = np.asarray(_eval(structure, r2_list))
        u_counts[lo:hi] = np.count_nonzero(r_2star <= r_hat, axis=1)
        if diagnostics:
            ties += int(np.count_nonzero(r_2star == r_hat))
    return u_counts, hits, ties


def dbpt_lcl(structure: StructureNode, families, datasets, t, alpha: float = 0.1,
             B: int = 1000, C: int = 500, rng=None, *,
             paper_literal_aux: bool = False) -> LclResult:
    """Double bootstrap percentile with transformed resamples.

    First layer: B transformed reliabilities per component.  Second layer:
    ONE shared set of C auxiliary pairs per component, reused across all
    first-layer indices; u_j counts second-layer system values at or below
    the point estimate (ties count as covered), and the u_(ceil(B*alpha))
    quantile recalibrates the percentile rank.
    """
    _check_common(structure, alpha, B)
    if C < 1:
        raise ValueError("C must be >= 1")
    comps, r_hat = _fit_components(structure, families, datasets, t)
    vals1, r_star, hits = _first_layer(comps, structure, B, rng, paper_literal_aux)

    aux2 = [gen_aux_batch(comp.family, comp.n, C, generator(rng, _LAYER_TWO, i),
                          paper_literal_aux)
            for i, comp in enumerate(comps)]
    u_counts, hits2, ties = _second_layer(structure, comps, vals1, aux2, r_hat)
    hits += hits2
    lcl, u_k, k, k_prime = _select_dbpt(r_star, u_counts, B, C, alpha)
    return make_result(
        "dbpt", lcl, r_hat, t, alpha, B=B, C=C, seed=seed_entropy(rng),
        boundary_hits=hits, ties=ties, ranks=(u_k, k, k_prime),
        component_estimates=[c.estimate.summary() for c in comps],
    )


# --- conventional nested double bootstrap (oracle) --------------------------


def _sample_matrix(family, shape, rng, mu=None, sigma=None, rate=None):
    if rate is not None:
        return rng.standard_exponential(shape) / rate
    return np.exp(mu + sigma * family.sample_standardized(shape, rng))


def _moment_reliability_rows(family, x: np.ndarray, t: float) -> np.ndarray:
    """Moment-based reliability at t for each row of the sample matrix."""
    n = x.shape[-1]
    if isinstance(family, Exponential):
        rate = n / x.sum(axis=-1)
        return np.exp(-rate * t)
    logs = np.log(x)
    xbar = logs.mean(axis=-1)
    s = logs.std(axis=-1, ddof=1)
    if np.any(s == 0.0):
        raise EstimationError("degenerate resample: all log lifetimes identical")
    sigma = s / family.kappa2
    mu = xbar - family.kappa1 * sigma
    return family.sf((np.log(t) - mu) / sigma)


def _moment_params_rows(family, x: np.ndarray):
    n = x.shape[-1]
    if isinstance(family, Exponential):
        return {"rate": n / x.sum(axis=-1)}
    logs = np.log(x)
    xbar = logs.mean(axis=-1)
    s = logs.std(axis=-1, ddof=1)
    if np.any(s == 0.0):
        raise EstimationError("degenerate resample: all log lifetimes identical")
    sigma = s / family.kappa2
    return {"mu": xbar - family.kappa1 * sigma, "sigma": sigma}


def dbp_lcl_oracle(structure: StructureNode, families, datasets, t,
                   alpha: float = 0.1, B: int = 200, C: int = 100, rng=None, *,
                   recensor_n_tilde: Sequence[int] | None = None) -> LclResult:
    """Conventional double bootstrap percentile by full nested resampling.

    Every first- and second-layer estimate comes from an actual resampled
    dataset (cost O(s*n*B*C)); intended for testing and runtime comparisons
    at small scale.  ``recensor_n_tilde`` optionally re-applies Type-II
    censoring plus imputation to every resampled dataset, for sensitivity
    experiments on censored pipelines.
    """
    _check_common(structure, alpha, B)
    if C < 1:
        raise ValueError("C must be >= 1")
    comps, r_hat = _fit_components(structure, families, datasets, t)
    t = float(t)

    completer = None
    if recensor_n_tilde is not None:
        from .censoring import impute, type2_censor

        if len(recensor_n_tilde) != len(comps):
            raise ValueError("recensor_n_tilde must give one count per component")

        def completer(family, rows, n_tilde):
            return np.stack([impute(family, type2_censor(row, n_tilde)) for row in rows])

    star_params = []
    r_star_comp = []
    for i, comp in enumerate(comps):
        rng1 = generator(rng, _LAYER_ONE, i)
        est = comp.estimate
        x_star = _sample_matrix(
            comp.family, (B, comp.n), rng1,
            mu=est.mu_hat, sigma=est.sigma_hat, rate=est.rate_hat,
        )
        if completer is not None:
            x_star = completer(comp.family, x_star, recensor_n_tilde[i])
        star_params.append(_moment_params_rows(comp.family, x_star))
        r_star_comp.append(_moment_reliability_rows(comp.family, x_star, t))
    r_star = np.asarray(_eval(structure, r_star_comp))

    rng2 = [generator(rng, _LAYER_TWO, i) for i in range(len(comps))]
    u_counts = np.empty(B, dtype=np.int64)
    ties = 0
    for j in range(B):
        r_2star_comp = []
        for i, comp in enumerate(comps):
            params = star_params[i]
            kwargs = ({"rate": params["rate"][j]} if comp.is_exp
                      else {"mu": params["mu"][j], "sigma": params["sigma"][j]})
            x_2star = _sample_matrix(comp.family, (C, comp.n), rng2[i], **kwargs)
            if completer is not None:
                x_2star = completer(comp.family, x_2star, recensor_n_tilde[i])
            r_2star_comp.append(_moment_reliability_rows(comp.family, x_2star, t))
        r_2star = np.asarray(_eval(structure, r_2star_comp))
        u_counts[j] = int((r_2star <= r_hat).sum())
        ties += int((r_2star == r_hat).sum())

    lcl, u_k, k, k_prime = _select_dbpt(r_star, u_counts, B, C, alpha)
    return make_result(
        "dbp", lcl, r_hat, t, alpha, B=B, C=C, seed=seed_entropy(rng),
        boundary_hits=0, ties=ties, ranks=(u_k, k, k_prime),
        component_estimates=[c.estimate.summary() for c in comps],
    )
