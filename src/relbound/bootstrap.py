"""Bootstrap lower confidence limits for system reliability.

Four procedures: the percentile (bp) and basic (bb) parametric bootstraps,
the double bootstrap percentile with transformed resamples (dbpt), and the
conventional nested double bootstrap (dbp) kept as a slow oracle.

The bootstrap paths run on moment estimates.  Resampled component
reliabilities are produced by the auxiliary-statistic transform rather than
by dataset resampling; internally everything stays on each family's scale
(``LifetimeFamily.scale``: the standardized quantile, or the log reliability
for exponentials), where the nested transform is a plain affine map, and
probabilities are materialized only to evaluate the structure function.  A
fitted component is its :class:`~relbound.estimators.MomentEstimate`; the
family supplies the scale, the transform and the reliability, so no code
here depends on which family it is.

Every layer is computed over a 1-D array of G mission times.  The auxiliary
statistics (the resampled datasets, for the oracle) are drawn once and
shared by all G times, so :func:`bootstrap_curve` is the LCL-versus-time
curve under common random numbers, and ``bp_lcl``, ``bb_lcl``, ``dbpt_lcl``
and ``dbp_lcl_oracle`` are its one-point case: at a fixed seed, the curve at
t equals the scalar LCL at t bit for bit.

The dbpt second layer (B first-layer rows times C shared auxiliary pairs per
component) runs blocks outside, times inside: it walks blocks of first-layer
rows once and evaluates every time within each block, through one reused
buffer, so its working memory is O(s * rows * C) with rows * C near 2**15,
whatever B and G are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .censoring import impute, type2_censor
from .distributions import ComponentModel, component_reliability, mission_grid, sample_lifetimes
from .errors import EstimationError
from .estimators import moment_estimate
from .rng import generator, seed_entropy
from .resampling import gen_aux_batch, transform_scale
from .results import LclResult
from .selection import ceil_div, ceil_index, kth_smallest
from .structures import StructureNode, eval_structure, num_components

__all__ = ["LclResult", "bp_lcl", "bb_lcl", "dbpt_lcl", "dbp_lcl_oracle", "bootstrap_curve",
           "check_bootstrap_settings"]

_LAYER_ONE = 1
_LAYER_TWO = 2
_METHODS = ("bp", "bb", "dbpt", "dbp")
_TWO_LAYER = ("dbpt", "dbp")


@dataclass
class _Outcome:
    """One bootstrap run; every field holds one entry per mission time."""

    raw: np.ndarray
    ranks: list | None  # (u_k, k, k_prime), double bootstraps only
    r_hat: np.ndarray
    boundary_hits: np.ndarray
    ties: np.ndarray


def check_bootstrap_settings(method, alpha, B, C):
    """Refuse the settings every LCL of ``method`` would refuse; ``C`` is read by dbpt and dbp."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if B < ceil_index(1.0 / alpha):
        raise ValueError(f"B must be at least ceil(1/alpha) = {ceil_index(1.0 / alpha)}")
    if method in _TWO_LAYER and C < 1:
        raise ValueError("C must be >= 1")


def _r_hat(structure, comps, t) -> np.ndarray:
    """Plug-in system reliability at each time, from the fitted components."""
    return np.asarray(eval_structure(structure, [component_reliability(c, t) for c in comps]))


def _boundary_hits(r: np.ndarray, axis=None):
    return np.count_nonzero((r == 0.0) | (r == 1.0), axis=axis)


def _draw_aux(comps, size, rng, layer, paper_literal):
    """``size`` auxiliary pairs per component, component i from stream (layer, i)."""
    return [gen_aux_batch(c.family, c.n, size, generator(rng, layer, i), paper_literal)
            for i, c in enumerate(comps)]


def _first_layer(structure, comps, scales, aux):
    """The transformed first layer at every time, from each component's (G,) fitted scale values.

    Returns ``(vals, r_star, hits)``: per component the (B, G) scale values,
    the (B, G) system values, and per time the component values equal to 0
    or 1.
    """
    vals_list, r_list, hits = [], [], 0
    for comp, scale, (z_bar, m) in zip(comps, scales, aux):
        family = comp.family
        vals = transform_scale(family, scale[None, :], z_bar[:, None], m[:, None])
        r = family.reliability(vals)
        hits = hits + _boundary_hits(r, axis=0)
        vals_list.append(vals)
        r_list.append(r)
    return vals_list, np.asarray(eval_structure(structure, r_list)), hits


def _select_dbpt(r_star: np.ndarray, u_counts: np.ndarray, B: int, C: int, alpha: float):
    """Shared final selection, per time: k = ceil(B*alpha), k' = ceil(B * u_(k)) clamped to [1, B].

    ``r_star`` and ``u_counts`` are (B, G).  u values are carried as integer
    counts out of C so the index arithmetic is exact.  k' = 0 can occur when
    u_(k) = 0; clamping to 1 returns the smallest first-layer value, the
    conservative direction.  Returns the (G,) LCLs and a (u_k, k, k') triple
    per time.
    """
    k = ceil_index(B * alpha)
    lcl, ranks = np.empty(r_star.shape[1]), []
    for g, u_k in enumerate(kth_smallest(u_counts, k, axis=0).tolist()):
        k_prime = min(B, max(1, ceil_div(B * u_k, C)))
        lcl[g] = kth_smallest(r_star[:, g], k_prime)
        ranks.append((u_k, k, k_prime))
    return lcl, ranks


# Elements per second-layer block: rows * C stays near 2**15 doubles (256 KiB),
# so each component's block fits in cache between the affine map and sf.
_BLOCK_ELEMS = 2 ** 15


def _second_layer(structure, comps, vals1, aux2, r_hat):
    """Per first-layer row j and time g, how many of C second-layer values are <= r_hat[g].

    Row j of component i transforms ``vals1[i][j, g]`` by each of the C shared
    auxiliary pairs ``aux2[i]``.  Rows are processed in blocks of
    ``max(1, 2**15 // C)``, and every time is evaluated within a block; the
    affine map of each component is written into one reused (rows, C) buffer,
    so peak memory is O(s * rows * C) instead of O(s * B * C).  Each element
    goes through the same numpy operations as the unblocked map, so the
    counts are bit-identical to it.

    Returns ``(u_counts, boundary_hits, ties)``: the (B, G) int64 counts, and
    per time the second-layer component values equal to 0 or 1 and the system
    values equal to ``r_hat``.  The last two are counted only when G == 1, the
    scalar LCL that reports them, and are 0 otherwise.
    """
    (B, G), C = vals1[0].shape, aux2[0][1].shape[0]
    rows = max(1, _BLOCK_ELEMS // C)
    buf = np.empty((min(rows, B), C))
    u_counts = np.empty((B, G), dtype=np.int64)
    hits, ties = np.zeros(G, dtype=np.int64), np.zeros(G, dtype=np.int64)
    scalar = G == 1
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        block = buf[: hi - lo]
        for g in range(G):
            r2_list = []
            for comp, v1, (z2, m2) in zip(comps, vals1, aux2):
                family = comp.family
                r2 = family.reliability(transform_scale(family, v1[lo:hi, g, None], z2, m2, block))
                if scalar:
                    hits[g] += _boundary_hits(r2)
                r2_list.append(r2)
            r_2star = np.asarray(eval_structure(structure, r2_list))
            u_counts[lo:hi, g] = np.count_nonzero(r_2star <= r_hat[g], axis=1)
            if scalar:
                ties[g] += np.count_nonzero(r_2star == r_hat[g])
    return u_counts, hits, ties


def _transformed(method, structure, comps, t, r_hat, alpha, B, C, rng,
                 paper_literal) -> _Outcome:
    """bp, bb or dbpt at every time in ``t``, from auxiliary draws made once."""
    scales = [c.family.scale(t, **c.params) for c in comps]
    vals1, r_star, hits = _first_layer(structure, comps, scales,
                                       _draw_aux(comps, B, rng, _LAYER_ONE, paper_literal))
    if method in ("bp", "bb"):
        q = alpha if method == "bp" else 1.0 - alpha
        chosen = kth_smallest(r_star, ceil_index(B * q), axis=0)
        ties = np.count_nonzero(r_star == chosen, axis=0) - 1
        raw = chosen if method == "bp" else 2.0 * r_hat - chosen
        return _Outcome(raw, None, r_hat, hits, ties)
    aux2 = _draw_aux(comps, C, rng, _LAYER_TWO, paper_literal)
    u_counts, hits2, ties = _second_layer(structure, comps, vals1, aux2, r_hat)
    return _Outcome(*_select_dbpt(r_star, u_counts, B, C, alpha), r_hat, hits + hits2, ties)


def _run(method, structure, families, datasets, t, alpha, B, C, rng, paper_literal,
         recensor_n_tilde=None):
    """Check, fit and run ``method`` at every time in ``t``; returns (comps, outcome)."""
    check_bootstrap_settings(method, alpha, B, C)
    s = num_components(structure)
    if len(families) != s or len(datasets) != s:
        raise ValueError(f"structure has {s} components; families/datasets must match")
    t = mission_grid(t)
    comps = [moment_estimate(family, data) for family, data in zip(families, datasets)]
    r_hat = _r_hat(structure, comps, t)
    if method == "dbp":
        return comps, _nested(structure, comps, t, r_hat, alpha, B, C, rng, recensor_n_tilde)
    return comps, _transformed(method, structure, comps, t, r_hat, alpha, B, C, rng, paper_literal)


def _lcl(method, structure, families, datasets, t, alpha, B, C, rng,
         paper_literal=False, recensor_n_tilde=None) -> LclResult:
    """A scalar LCL: the one-point case of the curve, with its diagnostics."""
    comps, out = _run(method, structure, families, datasets, [float(t)], alpha, B, C, rng,
                      paper_literal, recensor_n_tilde=recensor_n_tilde)
    u_k, k, k_prime = out.ranks[0] if out.ranks else (None, None, None)
    return LclResult(method=method, raw_value=out.raw[0], r_hat=out.r_hat[0],
                     component_estimates=[c.summary() for c in comps], seed=seed_entropy(rng),
                     t=t, alpha=alpha, B=B, C=C, boundary_hits=out.boundary_hits[0],
                     ties=out.ties[0], u_k=u_k, k=k, k_prime=k_prime, percentile=method != "bb")


def bp_lcl(structure: StructureNode, families, datasets, t, alpha: float = 0.1,
           B: int = 1000, rng=None, *, paper_literal_aux: bool = False) -> LclResult:
    """Bootstrap percentile LCL: the ceil(B*alpha)-th smallest bootstrap reliability.

    Bootstrap reliabilities are generated through the auxiliary transform,
    which is identical in law to resampling each component dataset from its
    fitted model and re-estimating.
    """
    return _lcl("bp", structure, families, datasets, t, alpha, B, None, rng,
                paper_literal_aux)


def bb_lcl(structure: StructureNode, families, datasets, t, alpha: float = 0.1,
           B: int = 1000, rng=None, *, paper_literal_aux: bool = False) -> LclResult:
    """Basic bootstrap LCL: 2*R_hat - (ceil(B*(1-alpha))-th smallest bootstrap value).

    The raw value may leave [0, 1]; it is reported as-is with the
    ``fell_outside`` flag and a clamped companion.
    """
    return _lcl("bb", structure, families, datasets, t, alpha, B, None, rng,
                paper_literal_aux)


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
    return _lcl("dbpt", structure, families, datasets, t, alpha, B, C, rng,
                paper_literal_aux)


def bootstrap_curve(method: str, structure: StructureNode, families, datasets, t_grid,
                    alpha: float = 0.1, B: int = 1000, C: int = 500, rng=None, *,
                    paper_literal_aux: bool = False) -> np.ndarray:
    """LCL of ``method`` (bp, bb, dbpt or dbp) at every time of ``t_grid``.

    The auxiliary draws (the resampled datasets, for dbp) are made once with
    the scalar method's generator keys and shared by every time, so entry g
    equals the scalar method's ``raw_value`` at ``t_grid[g]`` with the same
    ``rng``, bit for bit.  Inputs are checked as the scalar method checks
    them; ``C`` is used only by dbpt and dbp.
    """
    _, out = _run(method, structure, families, datasets, t_grid, alpha, B, C, rng,
                  paper_literal_aux)
    return out.raw


# --- conventional nested double bootstrap (oracle) --------------------------


def _resampled_fits(family, params, n, rows, rng, n_tilde):
    """Moment estimates of ``rows`` datasets of size ``n`` drawn at ``params``.

    Each fitted parameter is a (rows,) array.  With ``n_tilde`` set, each
    dataset is Type-II censored and imputed first.
    """
    try:
        model = ComponentModel(family, **params)
    except ValueError as exc:  # a fitted rate of 0, from a time on test that overflowed
        raise EstimationError(f"resampled dataset refused: {exc}") from None
    x = sample_lifetimes(model, (rows, n), rng)
    if n_tilde is not None:
        x = np.stack([impute(family, type2_censor(row, n_tilde)) for row in x])
    return moment_estimate(family, x)


def _nested(structure, comps, t, r_hat, alpha, B, C, rng, recensor_n_tilde=None) -> _Outcome:
    """dbp at every time in ``t``; the resampled parameters are drawn once.

    Each first-layer row's C second-layer estimates are evaluated at all G
    times before the next row is drawn, so memory is O(C * G), not O(B * C).
    """
    if recensor_n_tilde is not None and not (
            len(recensor_n_tilde) == len(comps)
            and all(1 <= k <= c.n for k, c in zip(recensor_n_tilde, comps))):
        raise ValueError("recensor_n_tilde must give one count in 1..n per component")
    n_tilde = recensor_n_tilde if recensor_n_tilde is not None else [None] * len(comps)
    star = [_resampled_fits(c.family, c.params, c.n, B, generator(rng, _LAYER_ONE, i), n_tilde[i])
            for i, c in enumerate(comps)]
    # (G, 1) times against (rows,) parameters: transposed, one row per resample
    r_star = _r_hat(structure, star, t[:, None]).T

    rng2 = [generator(rng, _LAYER_TWO, i) for i in range(len(comps))]
    u_counts = np.empty(r_star.shape, dtype=np.int64)
    ties = np.zeros(t.size, dtype=np.int64)
    for j in range(B):
        twostar = [_resampled_fits(c.family, {k: v[j] for k, v in e.params.items()}, c.n, C,
                                   rng2[i], n_tilde[i])
                   for i, (c, e) in enumerate(zip(comps, star))]
        r_2star = _r_hat(structure, twostar, t[:, None]).T
        u_counts[j] = np.count_nonzero(r_2star <= r_hat, axis=0)
        ties += np.count_nonzero(r_2star == r_hat, axis=0)
    return _Outcome(*_select_dbpt(r_star, u_counts, B, C, alpha), r_hat,
                    np.zeros(t.size, dtype=np.int64), ties)


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
    return _lcl("dbp", structure, families, datasets, t, alpha, B, C, rng,
                recensor_n_tilde=recensor_n_tilde)
