"""Stage-by-stage replay of the bootstrap LCLs through relbound's public functions.

``dbpt_lcl`` inlines its second layer, so no public seam splits it.  The
traced run therefore re-runs every captured ``bp``, ``bb`` and ``dbpt`` call
(scalar LCLs and ``lcl_curve`` grids) through

    moment_estimate -> gen_aux_batch -> transform_w / transform_logr
    -> family.sf / exp -> eval_reliability -> count -> kth_smallest

with the same generator keys, timing each call in its own span.  The
replayed values must equal the live ones bit for bit; otherwise the split
would describe some other computation.

Stage spans carry exact work counts derived from shapes: ``draws`` (auxiliary
draws: size * n for brute-sampled families, size otherwise), ``elems``
(output elements) and ``layer2_bytes`` (bytes of each materialised
second-layer array, as computed, not as measured).  Exponential components
run their transform and materialisation as ``transform_logr`` and ``exp``;
they are counted under ``resampling.transform_w`` and ``distributions.sf``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

import relbound as rb
from relbound.resampling import transform_logr, transform_w
from relbound.rng import generator
from relbound.selection import ceil_div, ceil_index, kth_smallest

LAYER_ONE, LAYER_TWO = 1, 2
REPLAYED = ("bp", "bb", "dbpt")
STAGES = (
    "estimators.moment_estimate",
    "resampling.gen_aux_batch",
    "resampling.transform_w",
    "distributions.sf",
    "structures.eval_reliability",
    "selection.u_count",
    "selection.kth_smallest",
)


@dataclass
class Captured:
    """A live bootstrap call and what it returned."""

    kind: str  # "lcl" or "curve"
    method: str
    node: object
    families: list
    datasets: list
    t: object  # mission time, or the t grid of a curve
    alpha: float
    B: int
    C: int
    seed: object
    paper_literal: bool
    live: object  # the live LCL value, or the live curve
    live_seconds: float


@dataclass
class _Comp:
    family: object
    estimate: object
    is_exp: bool

    def base_at(self, t):
        """Standardized-quantile (log-reliability for exponentials) value at t."""
        est = self.estimate
        if self.is_exp:
            return -est.rate_hat * t
        return (np.log(t) - est.mu_hat) / est.sigma_hat


def same_bits(a, b) -> bool:
    """Bitwise equality of two floats or float arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return struct.pack("<d", float(a)) == struct.pack("<d", float(b))


class Replayer:
    """Replays captured calls, recording one span per stage in ``tracer``."""

    def __init__(self, tracer):
        self.tr = tracer

    def run(self, call: Captured):
        """The replayed value of ``call``, comparable to ``call.live``."""
        with self.tr.span(f"replay.{call.kind}.{call.method}"):
            if call.kind == "curve":
                return self._curve(call)
            return self._lcl(call)

    # --- stages ---------------------------------------------------------------

    def _fit(self, node, families, datasets, t):
        comps = []
        for family, data in zip(families, datasets):
            with self.tr.span("estimators.moment_estimate"):
                est = rb.moment_estimate(family, data)
            comps.append(_Comp(family, est, isinstance(family, rb.Exponential)))
        return comps, self._r_hat(node, comps, t)

    def _r_hat(self, node, comps, t):
        r = [float(self._materialise(c, c.base_at(t))) for c in comps]
        return float(self._eval(node, r))

    def _aux(self, comp, size, seed, layer, i, paper_literal):
        n = comp.estimate.n
        brute = not isinstance(comp.family, (rb.Exponential, rb.LogNormal))
        with self.tr.span("resampling.gen_aux_batch", draws=size * n if brute else size):
            return rb.gen_aux_batch(comp.family, n, size, generator(seed, layer, i),
                                    paper_literal)

    def _transform(self, comp, base, z_bar, m, layer2=False):
        with self.tr.span("resampling.transform_w") as counts:
            vals = (transform_logr(base, m) if comp.is_exp
                    else transform_w(comp.family, base, z_bar, m))
            _count(counts, vals, layer2)
        return vals

    def _materialise(self, comp, vals, layer2=False):
        with self.tr.span("distributions.sf") as counts:
            r = np.exp(vals) if comp.is_exp else comp.family.sf(vals)
            _count(counts, r, layer2)
        return r

    def _eval(self, node, r_list, layer2=False):
        with self.tr.span("structures.eval_reliability") as counts:
            out = rb.eval_reliability(node, r_list)
            _count(counts, out, layer2)
        return out

    def _kth(self, values, k):
        with self.tr.span("selection.kth_smallest"):
            return kth_smallest(values, k)

    def _first_layer(self, comps, node, bases, aux):
        vals = [self._transform(c, b, z, m) for c, b, (z, m) in zip(comps, bases, aux)]
        r_list = [self._materialise(c, v) for c, v in zip(comps, vals)]
        return vals, np.asarray(self._eval(node, r_list))

    def _second_layer(self, comps, node, vals1, aux2, r_hat):
        """The B x C system values, and per row how many are <= r_hat."""
        r2_list = []
        for comp, v1, (z2, m2) in zip(comps, vals1, aux2):
            vals2 = self._transform(comp, v1[:, None], z2[None, :], m2[None, :], layer2=True)
            r2_list.append(self._materialise(comp, vals2, layer2=True))
        r_2star = np.asarray(self._eval(node, r2_list, layer2=True))
        with self.tr.span("selection.u_count"):
            return r_2star, (r_2star <= r_hat).sum(axis=1)

    def _select_dbpt(self, r_star, u_counts, B, C, alpha):
        u_k = int(self._kth(u_counts, ceil_index(B * alpha)))
        k_prime = min(B, max(1, ceil_div(B * u_k, C)))
        return self._kth(r_star, k_prime)

    def _all_aux(self, comps, size, call, layer):
        return [self._aux(c, size, call.seed, layer, i, call.paper_literal)
                for i, c in enumerate(comps)]

    # --- methods --------------------------------------------------------------

    def _lcl(self, call):
        t = float(call.t)
        comps, r_hat = self._fit(call.node, call.families, call.datasets, t)
        bases = [c.base_at(t) for c in comps]
        aux1 = self._all_aux(comps, call.B, call, LAYER_ONE)
        vals1, r_star = self._first_layer(comps, call.node, bases, aux1)
        if call.method == "bp":
            return _clamp(self._kth(r_star, ceil_index(call.B * call.alpha)))
        if call.method == "bb":
            upper = self._kth(r_star, ceil_index(call.B * (1.0 - call.alpha)))
            return 2.0 * r_hat - upper
        aux2 = self._all_aux(comps, call.C, call, LAYER_TWO)
        _, u_counts = self._second_layer(comps, call.node, vals1, aux2, r_hat)
        return _clamp(self._select_dbpt(r_star, u_counts, call.B, call.C, call.alpha))

    def _curve(self, call):
        t_grid = np.asarray(call.t, dtype=float)
        comps, _ = self._fit(call.node, call.families, call.datasets, float(t_grid[0]))
        aux1 = self._all_aux(comps, call.B, call, LAYER_ONE)
        if call.method in ("bp", "bb"):
            return self._curve_percentile(call, comps, t_grid, aux1)
        aux2 = self._all_aux(comps, call.C, call, LAYER_TWO)
        curve = np.empty(t_grid.size)
        for g, t in enumerate(t_grid):
            t = np.asarray(t)
            vals1, r_star = self._first_layer(comps, call.node,
                                              [c.base_at(t) for c in comps], aux1)
            r_hat = self._r_hat(call.node, comps, t)
            # r_2star lives on until the next grid point replaces it, as in
            # lcl_curve.  Freed at once, it would leave the heap top free, glibc
            # would hand it back to the OS, and every grid point would pay page
            # faults that the live curve does not.
            r_2star, u_counts = self._second_layer(comps, call.node, vals1, aux2, r_hat)
            curve[g] = self._select_dbpt(r_star, u_counts, call.B, call.C, call.alpha)
        return curve

    def _curve_percentile(self, call, comps, t_grid, aux1):
        """All grid points at once, as (B, G) arrays."""
        bases = [c.base_at(t_grid) for c in comps]
        _, r_star = self._first_layer(comps, call.node, [b[None, :] for b in bases],
                                      [(z[:, None], m[:, None]) for z, m in aux1])
        q = call.alpha if call.method == "bp" else 1.0 - call.alpha
        k = ceil_index(call.B * q)
        with self.tr.span("selection.kth_smallest"):
            chosen = np.partition(r_star, k - 1, axis=0)[k - 1]
        if call.method == "bp":
            return chosen
        r_list = [self._materialise(c, b) for c, b in zip(comps, bases)]
        return 2.0 * np.asarray(self._eval(call.node, r_list)) - chosen


def _count(counts: dict, out, layer2: bool) -> None:
    counts["elems"] = int(np.size(out))
    if layer2:
        counts["layer2_bytes"] = int(np.asarray(out).nbytes)


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, float(x)))
