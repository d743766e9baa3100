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
rows once and evaluates every time within each block.  Each component's
transform, reliability and share of the structure function are computed in
place in one (rows, C) buffer of its own, allocated once per call, so its
working memory is O(s * rows * C) with rows * C near 2**15, whatever B and
G are, and a block-time step allocates no array.

A curve (G > 1) over one leaf or a series of leaves, every one of a family
with a ``log_hazard`` (Weibull, exponential), takes the hazard path when a
bound on its error is under a quarter of its guard band.  Over a series,
R2 <= R_hat is sum_i h_i >= H_hat = -log R_hat, where component i's
reliability is exp(-h_i).  On a log-uniform grid each second-layer log
hazard is affine in the grid index, so each hazard is carried along the grid
by one multiply per step.  Its log ratio per step is the first layer's: the
row's log-hazard step along the grid times the transform's log-hazard slope
for the column, so a block runs one transform per component, at the last
grid point, and its blocks hold half the live kernel's elements.  Its
counts are the live kernel's: every
hazard sum outside the band [H_hat (1 - eps) - eps, H_hat (1 + eps) + eps]
is decided as the live kernel decides it, since the error bound is under a
quarter of the band, and three rules send the rest to the live kernel, which
computes each row alone: a row with a sum inside the band, a row whose
starting hazards are not normal floats, and a time whose R_hat is 0, tiny or
within a few ulps of 1.

Most elements never run the product.  An element's modelled log H2 is a
log-sum-exp of functions affine in the grid index, so it is convex: below
its chord and above its tangents between the first and last fast time.  A
certificate compares those with the band's edges, each moved by the most it
bends away from its own chord, and decides an element at every fast time
at once when its model lies outside the band by a margin of 1e-6 in log H2
throughout.  The margin is far above the band, the error bound and the
certificate's own rounding, so the product would have counted the element
the same way and found it outside the band; only the other elements,
compacted with their rows, a whole block at a time, run the product.  The
counts, and the rows sent live, are therefore the product's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .censoring import impute, type2_censor
from .distributions import ComponentModel, mission_grid, sample_lifetimes
from .estimators import moment_estimate
from .rng import generator, seed_entropy
from .resampling import gen_aux_batch, log_hazard_slope, transform_scale
from .results import LclResult
from .selection import ceil_div, ceil_index, kth_smallest
from .structures import (ComponentRef, Series, StructureNode, check_component_lists, eval_structure,
                         scratch_rows)

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
    """Plug-in system reliability at each time, from the fitted components.

    Each component's reliability is written over its fresh scale values, so
    the structure function runs in place over arrays this call owns.
    """
    scales = [c.family.scale(t, **c.params) for c in comps]
    return eval_structure(structure, [c.family.reliability(v, out=v)
                                      for c, v in zip(comps, scales)])


def _boundary_hits(r: np.ndarray, axis=None, masks=(None, None)):
    """How many values of ``r`` are exactly 0 or 1, per ``axis``.

    ``masks`` are two bool arrays shaped like ``r`` to work in; by default
    the comparisons allocate their own.
    """
    hit = np.equal(r, 0.0, out=masks[0])
    return np.count_nonzero(np.logical_or(hit, np.equal(r, 1.0, out=masks[1]), out=hit),
                            axis=axis)


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
        r = family.reliability(vals, out=np.empty_like(vals))
        hits = hits + _boundary_hits(r, axis=0)
        vals_list.append(vals)
        r_list.append(r)
    return vals_list, eval_structure(structure, r_list), hits


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
    auxiliary pairs ``aux2[i]``.  A curve over a series of hazard families
    whose first layer is log-affine along the grid takes the hazard path
    (:func:`_hazard_second_layer`), and everything else the live kernel
    (:func:`_live_second_layer`); both give the live kernel's counts.

    Returns ``(u_counts, boundary_hits, ties)``: the (B, G) int64 counts, and
    per time the second-layer component values equal to 0 or 1 and the system
    values equal to ``r_hat``.  The last two are counted only when G == 1, the
    scalar LCL that reports them, and are 0 otherwise.
    """
    model = _hazard_model(structure, comps, vals1, aux2)
    if model is None:
        return _live_second_layer(structure, comps, vals1, aux2, r_hat)
    return _hazard_second_layer(structure, comps, vals1, aux2, r_hat, model)


def _live_second_layer(structure, comps, vals1, aux2, r_hat):
    """The second layer as it is defined: each value's reliability, structure and comparison.

    Rows are processed in blocks of
    ``max(1, 2**15 // C)``, and every time is evaluated within a block.  Each
    component owns one (rows, C) buffer, allocated once: the affine map is
    written into it, its reliability is computed there in place, and the
    structure function combines the buffers in place (with the scratch
    buffers a k-out-of-n node needs), so peak memory is O(s * rows * C)
    instead of O(s * B * C), and no block or time allocates an array.  Each
    element goes through the same numpy operations as the unblocked map, so
    the counts are bit-identical to it, and each row's counts are the same
    whichever rows and times a call is given.  Returns what
    :func:`_second_layer` returns.
    """
    (B, G), C, s = vals1[0].shape, aux2[0][1].shape[0], len(comps)
    rows = min(max(1, _BLOCK_ELEMS // C), B)
    # separate (rows, C) arrays, not one (s + scratch, rows, C) array: glibc
    # hands arrays this size back to the system between calls, where one large
    # array stayed on its heap and raised the peak RSS of a run of LCLs
    bufs = [np.empty((rows, C)) for _ in range(s + scratch_rows(structure))]
    mask_bufs = np.empty((2, rows, C), dtype=bool)
    u_counts = np.empty((B, G), dtype=np.int64)
    hits, ties = np.zeros(G, dtype=np.int64), np.zeros(G, dtype=np.int64)
    scalar = G == 1
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        block, masks = [buf[: hi - lo] for buf in bufs], mask_bufs[:, : hi - lo]
        r2_list, scratch = block[:s], block[s:]
        for g in range(G):
            for comp, v1, (z2, m2), r2 in zip(comps, vals1, aux2, r2_list):
                family = comp.family
                family.reliability(transform_scale(family, v1[lo:hi, g, None], z2, m2, r2), out=r2)
                if scalar:
                    hits[g] += _boundary_hits(r2, masks=masks)
            r_2star = eval_structure(structure, r2_list, scratch)
            covered = np.less_equal(r_2star, r_hat[g], out=masks[0])
            u_counts[lo:hi, g] = np.count_nonzero(covered, axis=1)
            if scalar:
                ties[g] += np.count_nonzero(np.equal(r_2star, r_hat[g], out=masks[0]))
    return u_counts, hits, ties


# --- the hazard path ------------------------------------------------------------
#
# Over a series, R2 <= R_hat is H2 >= H_hat, where H2 is the sum of the
# components' hazards (each reliability is exp(-h)) and H_hat = -log(R_hat).
# Each H2 is decided in that domain only outside the guard band
# [H_hat (1 - _BAND) - _BAND, H_hat (1 + _BAND) + _BAND]; rows with a value in
# the band, and the rows and times the band cannot guard, take the live kernel.
_BAND = 1e-9
# a row goes live unless its log hazards at the last grid point lie within
# +-700, so that every hazard the running product starts from is a normal float
_LOG_HAZARD_MAX = 700.0
# a time goes live unless H_hat lies in this range: below it R_hat is 1 to
# within a few ulps; above it (or at R_hat = 0, H_hat = inf) second-layer
# values near R_hat are no longer normal floats
_H_HAT_RANGE = (4 * np.finfo(float).eps, 600.0)
# the rounding error of one exp, log or arithmetic operation, taken generously
_ROUNDING = 8 * np.finfo(float).eps


def _is_series(node) -> bool:
    """Whether ``node`` is a leaf or a tree of series nodes over leaves."""
    return isinstance(node, ComponentRef) or (
        isinstance(node, Series) and all(_is_series(child) for child in node.children))


def _hazard_model(structure, comps, vals1, aux2):
    """The log ratio per grid step of each second-layer hazard, or None for the live kernel.

    A curve over one leaf or a series of leaves, every one of a family with a
    ``log_hazard``, gets a model when a bound on its error in H2, relative to
    H2 + 1, is under a quarter of the guard band.  The model is, per
    component, the (B,) step of each first-layer row's log hazard per grid
    step down the grid, (first - last) / (G - 1), and the (C,) slopes
    ``log_hazard_slope`` of the second-layer transform: an element's log
    ratio is its row's step times its column's slope.

    The bound has three parts.  The drift: on a log-uniform grid each
    first-layer row's log hazards are affine in the grid index, and the
    second layer's are their image under the slope, so a component's model
    leaves its live log hazards by exactly its first layer's deviation from
    that affine fit times the slope.  The largest deviation, with a few ulps
    of the largest first-layer log hazard for the fit's rounding and the
    step's, times the largest slope bounds the largest of them, and the sum
    over the components bounds the sum.  The product's rounding over G
    steps, with the log hazards, ratios and sum it starts from.  And the live
    path's own rounding in R.  NaN, from a first layer without a finite log
    hazard, fails every comparison.
    """
    G = vals1[0].shape[1]
    if not (G > 1 and _is_series(structure)
            and all(hasattr(c.family, "log_hazard") for c in comps)):
        return None
    x = np.arange(G) / (G - 1)
    steps, slopes, drift = [], [], 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for comp, v1, (_, m2) in zip(comps, vals1, aux2):
            log_h = comp.family.log_hazard(v1)
            fit = log_h[:, :1] + (log_h[:, -1:] - log_h[:, :1]) * x
            # the fit's rounding, and the step's (a subtraction, a division and
            # the slope's multiply), are each a few ulps of the largest log hazard
            deviation = np.max(np.abs(log_h - fit)) + 4 * _ROUNDING * np.max(np.abs(log_h))
            slopes.append(log_hazard_slope(comp.family, m2))
            drift += deviation * np.max(slopes[-1])
            steps.append((log_h[:, 0] - log_h[:, -1]) / (G - 1))
    s = len(comps)
    # G multiplies and ratio roundings, s - 1 additions, and the rounding of
    # the log hazards the product starts from, relative to a log hazard of at
    # most _LOG_HAZARD_MAX that falls by about as much again before it stops
    # counting
    product = _ROUNDING * (2 * G + s + 4 * _LOG_HAZARD_MAX)
    # per component an exp of the hazard and an exp of its negative, the s - 1
    # products, and H_hat's own log
    live = _ROUNDING * (3 * s + 2)
    return (steps, slopes) if drift + product + live <= _BAND / 4 else None


def _hazard_second_layer(structure, comps, vals1, aux2, r_hat, model):
    """The counts of :func:`_live_second_layer` on a series, in the hazard domain.

    ``model`` is what :func:`_hazard_model` returned for this second layer.

    The times whose H_hat the band cannot guard, and the rows that
    :func:`_hazard_counts` cannot decide, go through the live kernel.  Rows and
    times are independent, so every count is the live one.
    """
    B, G = vals1[0].shape
    with np.errstate(divide="ignore"):
        h_hat = -np.log(r_hat)
    fast = (h_hat > _H_HAT_RANGE[0]) & (h_hat < _H_HAT_RANGE[1])
    u_counts = np.empty((B, G), dtype=np.int64)
    live_rows = _hazard_counts(comps, vals1, aux2, model, h_hat, fast, u_counts)
    for rows, times in ((np.ones(B, dtype=bool), ~fast), (live_rows, fast)):
        if rows.any() and times.any():
            counts, _, _ = _live_second_layer(structure, comps,
                                              [v[rows][:, times] for v in vals1], aux2,
                                              r_hat[times])
            u_counts[np.ix_(rows, times)] = counts
    return u_counts, np.zeros(G, dtype=np.int64), np.zeros(G, dtype=np.int64)


def _hazard_counts(comps, vals1, aux2, model, h_hat, fast, u_counts):
    """Write the counts at the ``fast`` times into ``u_counts``; the rows it cannot decide.

    Per block of rows, each component's second-layer log hazards at the last
    grid point come from ``transform_scale`` and ``log_hazard``, and their
    log ratios per step down the grid are the rows' first-layer steps times
    the columns' slopes (``model``).  Each hazard h is modelled as exp(last)
    at the last grid point, times exp(ratio) per step down the grid.  The
    certificate (:func:`_certify`) decides most elements at every fast time
    at once; the rest are compacted, with their rows, and carried down the
    grid by one multiply per step (:func:`_running_product`).  On an
    increasing grid the hazards fall along the way, so those that leave the
    normal floats are small enough for their absolute error not to count.  A
    row is undecided when its counts at the two edges of the guard band
    differ, or when a log hazard it starts from leaves +-``_LOG_HAZARD_MAX``.
    A block holds half the live kernel's elements, and the pending buffer
    one whole block.
    """
    (B, G), C, s = vals1[0].shape, aux2[0][1].shape[0], len(comps)
    undecided = np.zeros(B, dtype=bool)
    times = np.flatnonzero(fast)
    if not times.size:
        return undecided
    band = h_hat * (1.0 - _BAND) - _BAND, h_hat * (1.0 + _BAND) + _BAND, fast
    bounds = _certificate_bounds(*band[:2], times)
    rows = min(max(1, _BLOCK_ELEMS // 2 // C), B)
    bufs = [np.empty((rows, C)) for _ in range(2 * s + 3)]
    mask_bufs = np.empty((4, rows, C), dtype=bool)
    pending = _Pending(s, rows * C, band, u_counts, undecided)
    with np.errstate(all="ignore"):
        for lo in range(0, B, rows):
            hi = min(lo + rows, B)
            block, masks = [buf[: hi - lo] for buf in bufs], mask_bufs[:, : hi - lo]
            log_h, log_ratios, work = block[:s], block[s:2 * s], block[2 * s:]
            for comp, v1, (z2, m2), step, slope, h, ratio in zip(comps, vals1, aux2, *model,
                                                                  log_h, log_ratios):
                family = comp.family
                family.log_hazard(transform_scale(family, v1[lo:hi, G - 1, None], z2, m2, h),
                                  out=h)
                np.multiply(step[lo:hi, None], slope, out=ratio)
                in_range = np.less_equal(np.abs(h, out=work[0]), _LOG_HAZARD_MAX, out=masks[0])
                undecided[lo:hi] |= ~in_range.all(axis=1)
            always, open_ = _certify(log_h, log_ratios, G, times, bounds, work, masks)
            u_counts[lo:hi, times] = np.count_nonzero(always, axis=1)[:, None]
            pending.add(open_, log_h, log_ratios, lo)
        pending.flush()
    return undecided


# --- the certificate ---------------------------------------------------------
#
# An element's model sum at grid index x is H(x) = sum_i exp(a_i + (G-1-x) d_i),
# with a_i its log hazard at the last grid point and d_i its log ratio per
# step.  log H is a log-sum-exp of functions affine in x, so it is convex: it
# lies below its chord and above its tangent at either end of the fast times.
# The certificate decides an element only when its model lies outside the band
# by a margin _MARGIN in log H at every fast time; its product value and its
# live value then lie outside the band on the same side, so the running
# product would count it as the certificate does.  For a row whose log
# hazards start within +-_LOG_HAZARD_MAX, each d_i that carries weight at an
# end moves its log hazard by at most about 1,400 between the ends, so the
# certificate's own rounding stays many orders of magnitude under the margin;
# other rows go live whatever the certificate decides.
_MARGIN = 1e-6
_TINY = np.finfo(float).tiny


def _certificate_bounds(lower, upper, times):
    """What an element's model sum is compared with at the first and last fast time.

    Returns ``(never_at, always_at)``.  An element is never covered when its
    sum at both ends is at most ``never_at``: the band's lower edge, lowered by
    the margin and by the most log ``lower`` falls below its chord over the
    fast times.  It is always covered when the tangent of its log sum at
    either end is at least ``always_at`` at both ends: log ``upper``, raised by
    the margin and by the most it rises above its chord.  A lower edge that is
    not positive, or a ``never_at`` below the normal floats, decides nothing
    (NaN fails every comparison).
    """
    x = (times - times[0]) / max(times[-1] - times[0], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lower, log_upper = np.log(lower[times]), np.log(upper[times])
        dev_lower = np.max(log_lower[0] + (log_lower[-1] - log_lower[0]) * x - log_lower)
        dev_upper = np.max(log_upper - (log_upper[0] + (log_upper[-1] - log_upper[0]) * x))
        never_at = np.exp(log_lower[[0, -1]] - dev_lower - _MARGIN)
    return (np.where(never_at > _TINY, never_at, np.nan),
            log_upper[[0, -1]] + dev_upper + _MARGIN)


def _certify(log_h, log_ratios, G, times, bounds, work, masks):
    """Per element of a block: ``(always, open_)``, two (rows, C) bool masks.

    ``always`` marks the elements certified covered at every fast time and
    ``open_`` those the certificate cannot decide.  ``work`` is three (rows,
    C) float buffers and ``masks`` four bool ones; ``always`` and ``open_``
    are two of the latter.
    """
    never_at, always_at = bounds
    h_sum, tangent, h = work
    always, never, spare, both = masks
    span = times[-1] - times[0]
    for end, x in enumerate(times[[0, -1]]):
        # the model at grid index x: H in h_sum, and sum_i h_i d_i in tangent
        for i, (a, d) in enumerate(zip(log_h, log_ratios)):
            term = h_sum if i == 0 else h
            np.exp(np.add(np.multiply(d, G - 1 - x, out=term), a, out=term) if x < G - 1 else a,
                   out=term)
            if i == 0:
                np.multiply(term, d, out=tangent)
            else:
                np.add(h_sum, term, out=h_sum)
                np.add(tangent, np.multiply(term, d, out=term), out=tangent)
        if end == 0:
            np.less_equal(h_sum, never_at[0], out=never)
        else:
            np.logical_and(never, np.less_equal(h_sum, never_at[1], out=both), out=never)
        # d log H / dx = -sum_i h_i d_i / H, so the tangent at this end reaches
        # log H - (other - x) sum_i h_i d_i / H at the other end
        np.divide(tangent, h_sum, out=tangent)
        np.log(h_sum, out=h_sum)
        np.subtract(h_sum, np.multiply(tangent, span if end == 0 else -span, out=tangent),
                    out=tangent)
        here = always if end == 0 else spare
        np.greater_equal(h_sum, always_at[end], out=here)
        np.logical_and(here, np.greater_equal(tangent, always_at[1 - end], out=both), out=here)
        if end == 1:
            np.logical_or(always, here, out=always)
    return always, np.logical_not(np.logical_or(never, always, out=spare), out=spare)


class _Pending:
    """Elements the certificate leaves open, compacted for the running product.

    Per component, each element keeps its log hazard at the last grid point
    and its log ratio per step; elements are kept in row order, a whole block
    at a time, with the rows and how many elements each has.  There is room
    for ``size`` elements, one whole block; :func:`_running_product` counts
    the buffer when the next block would not fit, and the last one at
    :meth:`flush`, into ``u_counts`` and ``undecided``.
    """

    def __init__(self, s, size, band, u_counts, undecided):
        self.log_h = [np.empty(size) for _ in range(s)]
        self.log_ratios = [np.empty(size) for _ in range(s)]
        self.total = np.empty(size)
        self.mask = np.empty(size, dtype=bool)
        self.n, self.rows, self.counts = 0, [], []
        self.outputs = band, u_counts, undecided

    def add(self, chosen, log_h, log_ratios, first_row):
        """Append the ``chosen`` elements of a block whose first row is ``first_row``."""
        per_row = np.count_nonzero(chosen, axis=1)
        k = int(per_row.sum())
        if self.n + k > self.total.size:
            self.flush()
        mask, into = chosen.ravel(), slice(self.n, self.n + k)
        for src, dst in zip(log_h + log_ratios, self.log_h + self.log_ratios):
            np.compress(mask, src.ravel(), out=dst[into])
        some = np.flatnonzero(per_row)
        self.rows.append(first_row + some)
        self.counts.append(per_row[some])
        self.n += k

    def flush(self):
        """Count the pending elements and empty the buffer."""
        n, self.n = self.n, 0
        if n:
            rows, counts = np.concatenate(self.rows), np.concatenate(self.counts)
            self.rows, self.counts = [], []
            _running_product([v[:n] for v in self.log_h], [v[:n] for v in self.log_ratios],
                             rows, counts, self.total[:n], self.mask[:n], *self.outputs)


def _running_product(log_h, log_ratios, rows, counts, total, mask, band, u_counts, undecided):
    """Count compacted elements at the fast times and mark the rows with one in the band.

    Each element's hazards start at exp of its log hazard at the last grid
    point and are multiplied by exp of its log ratio per step down the grid,
    so each sum is computed as the uncompacted kernel computed it.  The
    elements come in row order, ``counts[i]`` of them from row ``rows[i]``;
    ``total`` and ``mask`` are buffers.  Each count is added to ``u_counts``;
    ``band`` is (lower, upper, fast).
    """
    lower, upper, fast = band
    hazards = [np.exp(v, out=v) for v in log_h]
    ratios = [np.exp(v, out=v) for v in log_ratios]
    starts = np.cumsum(counts) - counts
    G = fast.size
    for g in range(G - 1, int(np.argmax(fast)) - 1, -1):
        if g < G - 1:
            for h, ratio in zip(hazards, ratios):
                np.multiply(h, ratio, out=h)
        if not fast[g]:
            continue
        h2 = hazards[0]
        for h in hazards[1:]:
            h2 = np.add(h2, h, out=total)
        covered = np.add.reduceat(np.greater_equal(h2, upper[g], out=mask), starts,
                                  dtype=np.int64)
        u_counts[rows, g] += covered
        # the rows' counts at the lower edge are needed only when some differ
        if np.count_nonzero(np.greater(h2, lower[g], out=mask)) != covered.sum():
            undecided[rows[covered != np.add.reduceat(mask, starts, dtype=np.int64)]] = True


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
    check_component_lists(structure, families, datasets)
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
    x = sample_lifetimes(ComponentModel(family, **params), (rows, n), rng)
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
