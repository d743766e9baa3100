"""Monte Carlo study harness.

Repeated data generation, LCL computation per method, and aggregation into
empirical coverage, LCL quantiles, falling-outside and bend-back diagnostics,
plus a runtime scaling probe comparing the transformed-resample double
bootstrap against the conventional nested one.

Determinism contract: every replication derives its streams from
(master seed, n index, replication index, method index) by explicit keys, so
a study is bit-identical for a fixed seed regardless of the worker count.
Wall-clock timings are therefore kept out of the JSON report and live only
in the CSV.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .bootstrap import (
    _eval,
    _fit_components,
    _materialize,
    _moment_params_rows,
    _sample_matrix,
    _second_layer,
    _select_dbpt,
    bb_lcl,
    bp_lcl,
    dbp_lcl_oracle,
    dbpt_lcl,
)
from .censoring import censoring_count, impute, type2_censor
from .distributions import (
    ComponentModel,
    Exponential,
    component_reliability,
    family_from_name,
    sample_lifetimes,
)
from .errors import ConfigError, RelboundError
from .estimators import _delta_fit, _delta_raw, delta_lcl
from .resampling import gen_aux_batch
from .rng import as_seedseq, child_seedseq, generator
from .selection import ceil_index, empirical_quantile
from .structures import StructureNode, eval_reliability, num_components, parse_structure

__all__ = [
    "StudyConfig",
    "MethodCell",
    "CoverageReport",
    "compute_lcl",
    "lcl_curve",
    "detect_bend_back",
    "run_coverage_study",
    "lcl_quantile",
    "falling_outside_count",
    "runtime_scaling_probe",
    "solve_identical_components",
    "default_t_grid",
]

METHODS = ("bp", "bb", "dbpt", "dbp", "delta", "delta-standard")


# --- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Settings of one coverage study; see README for the JSON schema."""

    structure: str
    t: float
    n_values: tuple
    methods: tuple
    components: Optional[tuple] = None
    family: Optional[str] = None
    target_reliability: Optional[float] = None
    alpha: float = 0.1
    B: int = 1000
    C: int = 500
    replications: int = 1000
    seed: int = 0
    lcl_quantile: float = 0.9
    censoring_fraction: Optional[float] = None
    impute_mode: str = "mean"
    bend_back: bool = False
    bend_back_points: int = 50
    bend_back_decades: float = 1.0
    paper_literal_aux: bool = False
    reimpute_in_resamples: bool = False
    threads: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.n_values or any(int(n) < 1 for n in self.n_values):
            raise ValueError("n must be a non-empty list of positive sizes")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {list(METHODS)}")
        if not self.methods:
            raise ValueError("methods list is empty")
        if (self.components is None) == (self.target_reliability is None):
            raise ValueError(
                "give either explicit 'components' or 'family' + 'target_reliability'"
            )
        if self.target_reliability is not None:
            if self.family is None:
                raise ValueError("target_reliability mode needs a 'family'")
            if not 0.0 < self.target_reliability < 1.0:
                raise ValueError("target_reliability must lie inside (0, 1)")
        if self.censoring_fraction is not None and not 0.0 <= self.censoring_fraction < 1.0:
            raise ValueError("censoring_fraction must lie in [0, 1)")
        if not 0.0 < self.lcl_quantile < 1.0:
            raise ValueError("lcl_quantile must lie inside (0, 1)")
        if self.bend_back_points < 2:
            raise ValueError("bend-back grid needs at least 2 points")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        if not isinstance(raw, dict):
            raise ConfigError("study config must be a JSON object")
        known = {
            "structure", "t", "n", "methods", "components", "family",
            "target_reliability", "alpha", "B", "C", "replications", "seed",
            "lcl_quantile", "censoring_fraction", "impute_mode", "bend_back",
            "paper_literal_aux", "reimpute_in_resamples", "threads",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("structure", "t", "n", "methods"):
            if key not in raw:
                raise ConfigError(f"config is missing required key {key!r}")
        bend = raw.get("bend_back", False)
        if isinstance(bend, dict):
            bad = set(bend) - {"enabled", "points", "decades"}
            if bad:
                raise ConfigError(f"unknown bend_back keys: {sorted(bad)}")
            bend_enabled = bool(bend.get("enabled", True))
            bend_points = int(bend.get("points", 50))
            bend_decades = float(bend.get("decades", 1.0))
        else:
            bend_enabled = bool(bend)
            bend_points, bend_decades = 50, 1.0
        components = raw.get("components")
        try:
            return cls(
                structure=str(raw["structure"]),
                t=float(raw["t"]),
                n_values=tuple(int(n) for n in raw["n"]),
                methods=tuple(str(m) for m in raw["methods"]),
                components=tuple(dict(c) for c in components) if components else None,
                family=raw.get("family"),
                target_reliability=raw.get("target_reliability"),
                alpha=float(raw.get("alpha", 0.1)),
                B=int(raw.get("B", 1000)),
                C=int(raw.get("C", 500)),
                replications=int(raw.get("replications", 1000)),
                seed=int(raw.get("seed", 0)),
                lcl_quantile=float(raw.get("lcl_quantile", 0.9)),
                censoring_fraction=raw.get("censoring_fraction"),
                impute_mode=str(raw.get("impute_mode", "mean")),
                bend_back=bend_enabled,
                bend_back_points=bend_points,
                bend_back_decades=bend_decades,
                paper_literal_aux=bool(raw.get("paper_literal_aux", False)),
                reimpute_in_resamples=bool(raw.get("reimpute_in_resamples", False)),
                threads=int(raw.get("threads", 1)),
            )
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "structure": self.structure,
            "t": self.t,
            "n": list(self.n_values),
            "methods": list(self.methods),
            "components": [dict(c) for c in self.components] if self.components else None,
            "family": self.family,
            "target_reliability": self.target_reliability,
            "alpha": self.alpha,
            "B": self.B,
            "C": self.C,
            "replications": self.replications,
            "seed": self.seed,
            "lcl_quantile": self.lcl_quantile,
            "censoring_fraction": self.censoring_fraction,
            "impute_mode": self.impute_mode,
            "bend_back": {
                "enabled": self.bend_back,
                "points": self.bend_back_points,
                "decades": self.bend_back_decades,
            },
            "paper_literal_aux": self.paper_literal_aux,
            "reimpute_in_resamples": self.reimpute_in_resamples,
            "threads": self.threads,
        }


def solve_identical_components(node: StructureNode, family, target_r: float, t: float):
    """Parameters of identical components hitting a target system reliability.

    The per-component reliability solves psi(r, ..., r) = R by bisection
    (monotone by coherence); two-parameter families then fix sigma = 1 and
    place mu accordingly, exponentials solve the rate.
    """
    s = num_components(node)
    if not 0.0 < target_r < 1.0:
        raise ValueError("target reliability must lie inside (0, 1)")

    def gap(r):
        return eval_reliability(node, [r] * s) - target_r

    r_star = brentq(gap, 1e-15, 1.0 - 1e-15, xtol=1e-15, rtol=8.881784197001252e-16)
    if isinstance(family, Exponential):
        model = ComponentModel(family, rate=-math.log(r_star) / t)
    else:
        model = ComponentModel(family, mu=math.log(t) - float(family.isf(r_star)), sigma=1.0)
    return [model] * s, r_star


def _resolve_models(config: StudyConfig, node: StructureNode):
    s = num_components(node)
    if config.components is not None:
        if len(config.components) != s:
            raise ConfigError(f"structure references {s} components, config lists {len(config.components)}")
        families, models = [], []
        for spec in config.components:
            family = family_from_name(spec["family"])
            families.append(family)
            if isinstance(family, Exponential):
                models.append(ComponentModel(family, rate=float(spec["rate"])))
            else:
                models.append(ComponentModel(family, mu=float(spec["mu"]), sigma=float(spec["sigma"])))
        return families, models, None
    family = family_from_name(config.family)
    models, r_star = solve_identical_components(node, family, config.target_reliability, config.t)
    solved = []
    for model in models[:1]:
        if isinstance(family, Exponential):
            solved.append({"family": family.name, "rate": model.rate, "per_component_r": r_star})
        else:
            solved.append({"family": family.name, "mu": model.mu, "sigma": model.sigma,
                           "per_component_r": r_star})
    return [family] * s, models, solved


# --- single-LCL dispatch and LCL-versus-time curves --------------------------


def compute_lcl(method: str, node: StructureNode, families, datasets, t, alpha,
                B, C, seed, *, paper_literal_aux=False, censored_masks=None,
                recensor_n_tilde=None):
    """Run one LCL method; the shared entry point for the CLI and the harness."""
    if method == "bp":
        return bp_lcl(node, families, datasets, t, alpha, B, seed,
                      paper_literal_aux=paper_literal_aux)
    if method == "bb":
        return bb_lcl(node, families, datasets, t, alpha, B, seed,
                      paper_literal_aux=paper_literal_aux)
    if method == "dbpt":
        return dbpt_lcl(node, families, datasets, t, alpha, B, C, seed,
                        paper_literal_aux=paper_literal_aux)
    if method == "dbp":
        return dbp_lcl_oracle(node, families, datasets, t, alpha, B, C, seed,
                              recensor_n_tilde=recensor_n_tilde)
    if method == "delta":
        return delta_lcl(node, families, datasets, t, alpha, form="paper",
                         censored_masks=censored_masks)
    if method == "delta-standard":
        return delta_lcl(node, families, datasets, t, alpha, form="standard",
                         censored_masks=censored_masks)
    raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")


def default_t_grid(t: float, points: int = 50, decades: float = 1.0) -> np.ndarray:
    """Log-spaced grid bracketing the mission time."""
    half = decades / 2.0
    return np.logspace(math.log10(t) - half, math.log10(t) + half, points)


def _bases_at(comps, t):
    """Standardized-quantile (or log-reliability) scale values at time(s) t."""
    t = np.asarray(t, dtype=float)
    out = []
    for comp in comps:
        est = comp.estimate
        if comp.is_exp:
            out.append(-est.rate_hat * t)
        else:
            out.append((np.log(t) - est.mu_hat) / est.sigma_hat)
    return out


def _first_layer_at(comps, bases, aux):
    vals_list, r_list = [], []
    for comp, base, (z1, m1) in zip(comps, bases, aux):
        if comp.is_exp:
            vals = base / m1
        else:
            vals = (base - z1) * (comp.family.kappa2 / m1) + comp.family.kappa1
        vals_list.append(vals)
        r_list.append(_materialize(comp, vals))
    return vals_list, r_list


def _curve_percentile(node, comps, t_grid, alpha, B, seed, paper_literal, basic):
    aux = [gen_aux_batch(c.family, c.n, B, generator(seed, 1, i), paper_literal)
           for i, c in enumerate(comps)]
    bases = _bases_at(comps, t_grid)
    grid_aux = [(z1[:, None], m1[:, None]) for z1, m1 in aux]
    grid_bases = [b[None, :] for b in bases]
    _, r_list = _first_layer_at(comps, grid_bases, grid_aux)
    r_star = np.asarray(_eval(node, r_list))  # (B, G)
    if basic:
        upper = np.partition(r_star, ceil_index(B * (1 - alpha)) - 1, axis=0)[
            ceil_index(B * (1 - alpha)) - 1]
        r_hat = np.asarray(_eval(node, [_materialize(c, b) for c, b in zip(comps, bases)]))
        return 2.0 * r_hat - upper
    k = ceil_index(B * alpha)
    return np.partition(r_star, k - 1, axis=0)[k - 1]


def _curve_dbpt(node, comps, t_grid, alpha, B, C, seed, paper_literal):
    aux1 = [gen_aux_batch(c.family, c.n, B, generator(seed, 1, i), paper_literal)
            for i, c in enumerate(comps)]
    aux2 = [gen_aux_batch(c.family, c.n, C, generator(seed, 2, i), paper_literal)
            for i, c in enumerate(comps)]
    curve = np.empty(t_grid.size)
    for g, t in enumerate(t_grid):
        bases = _bases_at(comps, t)
        vals1, r1 = _first_layer_at(comps, bases, aux1)
        r_star = np.asarray(_eval(node, r1))
        r_hat = float(_eval(node, [_materialize(c, b) for c, b in zip(comps, bases)]))
        u_counts, _, _ = _second_layer(node, comps, vals1, aux2, r_hat, diagnostics=False)
        curve[g], _, _, _ = _select_dbpt(r_star, u_counts, B, C, alpha)
    return curve


def _curve_dbp(node, comps, t_grid, alpha, B, C, seed):
    # resampled parameter layers are time-independent, so draw them once
    star_params, twostar_params = [], []
    for i, comp in enumerate(comps):
        est = comp.estimate
        rng1 = generator(seed, 1, i)
        x_star = _sample_matrix(comp.family, (B, comp.n), rng1,
                                mu=est.mu_hat, sigma=est.sigma_hat, rate=est.rate_hat)
        params = _moment_params_rows(comp.family, x_star)
        star_params.append(params)
        rng2 = generator(seed, 2, i)
        if comp.is_exp:
            rates = np.empty((B, C))
            for j in range(B):
                x2 = _sample_matrix(comp.family, (C, comp.n), rng2, rate=params["rate"][j])
                rates[j] = _moment_params_rows(comp.family, x2)["rate"]
            twostar_params.append({"rate": rates})
        else:
            mus = np.empty((B, C))
            sigmas = np.empty((B, C))
            for j in range(B):
                x2 = _sample_matrix(comp.family, (C, comp.n), rng2,
                                    mu=params["mu"][j], sigma=params["sigma"][j])
                p2 = _moment_params_rows(comp.family, x2)
                mus[j], sigmas[j] = p2["mu"], p2["sigma"]
            twostar_params.append({"mu": mus, "sigma": sigmas})

    def reliability(comp, params, t):
        if comp.is_exp:
            return np.exp(-params["rate"] * t)
        return comp.family.sf((math.log(t) - params["mu"]) / params["sigma"])

    curve = np.empty(t_grid.size)
    for g, t in enumerate(t_grid):
        bases = _bases_at(comps, t)
        r_hat = float(_eval(node, [_materialize(c, b) for c, b in zip(comps, bases)]))
        r_star = np.asarray(_eval(node, [reliability(c, p, t)
                                         for c, p in zip(comps, star_params)]))
        r_2star = np.asarray(_eval(node, [reliability(c, p, t)
                                          for c, p in zip(comps, twostar_params)]))
        u_counts = (r_2star <= r_hat).sum(axis=1)
        curve[g], _, _, _ = _select_dbpt(r_star, u_counts, B, C, alpha)
    return curve


def lcl_curve(method: str, node: StructureNode, families, datasets, t_grid,
              alpha=0.1, B: int = 1000, C: int = 500, seed=None, *,
              paper_literal_aux=False, censored_masks=None) -> np.ndarray:
    """LCL along a time grid under common random numbers.

    All auxiliary draws (or dataset resamples for the oracle) are generated
    once from ``seed`` and reused across the grid, so the returned curve is a
    function of time only and monotonicity can be checked without bootstrap
    noise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("t_grid needs at least 2 points")
    if np.any(np.diff(t_grid) <= 0.0) or np.any(t_grid <= 0.0):
        raise ValueError("t_grid must be positive and strictly increasing")
    if method in ("delta", "delta-standard"):
        fitted = _delta_fit(families, datasets, censored_masks)
        form = "paper" if method == "delta" else "standard"
        return np.array([_delta_raw(node, fitted, t, alpha, form)[0] for t in t_grid])
    comps, _ = _fit_components(node, families, datasets, float(t_grid[0]))
    if method == "bp":
        return _curve_percentile(node, comps, t_grid, alpha, B, seed, paper_literal_aux, False)
    if method == "bb":
        return _curve_percentile(node, comps, t_grid, alpha, B, seed, paper_literal_aux, True)
    if method == "dbpt":
        return _curve_dbpt(node, comps, t_grid, alpha, B, C, seed, paper_literal_aux)
    if method == "dbp":
        return _curve_dbp(node, comps, t_grid, alpha, B, C, seed)
    raise ValueError(f"unknown method {method!r}")


def detect_bend_back(method: str, node: StructureNode, families, datasets,
                     t_grid, alpha=0.1, B: int = 1000, C: int = 500, seed=None, *,
                     paper_literal_aux=False, censored_masks=None) -> int:
    """Count of grid-adjacent monotonicity violations of the LCL curve.

    A violation is LCL(t_{k+1}) > LCL(t_k) + 1e-12 under common random
    numbers; a dataset exhibits bend-back when the count is positive.
    """
    curve = lcl_curve(method, node, families, datasets, t_grid, alpha, B, C, seed,
                      paper_literal_aux=paper_literal_aux, censored_masks=censored_masks)
    return int(np.sum(curve[1:] > curve[:-1] + 1e-12))


# --- aggregation helpers ------------------------------------------------------


def lcl_quantile(lcls, q: float) -> float:
    """Empirical ceil(N*q) order statistic of a batch of LCLs."""
    return empirical_quantile(lcls, q)


def falling_outside_count(raw_values) -> int:
    """How many raw LCL values left the unit interval."""
    raw = np.asarray(raw_values, dtype=float)
    if raw.size == 0:
        raise ValueError("empty input")
    return int(((raw < 0.0) | (raw > 1.0)).sum())


# --- the coverage study -------------------------------------------------------


@dataclass(frozen=True)
class MethodCell:
    """Aggregated results for one (method, n) pair."""

    method: str
    n: int
    replications: int
    failures: int
    coverage: Optional[float]
    coverage_se: Optional[float]
    q_lcl: Optional[float]
    fell_outside: int
    bend_back: Optional[int]
    boundary_hits: int
    median_ms: Optional[float]
    mean_ms: Optional[float]

    def to_json_dict(self) -> dict:
        # timing stays out: the JSON report is byte-identical for a fixed seed
        return {
            "method": self.method,
            "n": self.n,
            "replications": self.replications,
            "failures": self.failures,
            "coverage": self.coverage,
            "coverage_se": self.coverage_se,
            "q_lcl": self.q_lcl,
            "fell_outside": self.fell_outside,
            "bend_back": self.bend_back,
            "boundary_hits": self.boundary_hits,
        }


@dataclass(frozen=True)
class CoverageReport:
    config: dict
    solved_components: Optional[list]
    true_reliability: float
    cells: tuple

    def to_json_dict(self) -> dict:
        # threads is an execution detail, not part of the study identity:
        # dropping it keeps report.json byte-identical across worker counts
        config = {k: v for k, v in self.config.items() if k != "threads"}
        return {
            "config": config,
            "solved_components": self.solved_components,
            "true_reliability": self.true_reliability,
            "results": [cell.to_json_dict() for cell in self.cells],
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "n", "coverage", "coverage_se", "q90_lcl",
                         "fell_outside", "bend_back", "failures", "median_ms"])
        for cell in self.cells:
            writer.writerow([
                cell.method,
                cell.n,
                "" if cell.coverage is None else f"{cell.coverage:.6f}",
                "" if cell.coverage_se is None else f"{cell.coverage_se:.6f}",
                "" if cell.q_lcl is None else f"{cell.q_lcl:.10g}",
                cell.fell_outside,
                "" if cell.bend_back is None else cell.bend_back,
                cell.failures,
                "" if cell.median_ms is None else f"{cell.median_ms:.3f}",
            ])
        return buf.getvalue()

    def summary_lines(self) -> list:
        lines = [
            f"true reliability R = {self.true_reliability:.6f}",
            f"{'method':<16}{'n':>6}{'coverage':>10}{'se':>8}{'q_lcl':>10}"
            f"{'outside':>9}{'bend':>6}{'fail':>6}{'med_ms':>9}",
        ]
        for c in self.cells:
            cov = "-" if c.coverage is None else f"{c.coverage:.4f}"
            se = "-" if c.coverage_se is None else f"{c.coverage_se:.4f}"
            q = "-" if c.q_lcl is None else f"{c.q_lcl:.4f}"
            bend = "-" if c.bend_back is None else str(c.bend_back)
            ms = "-" if c.median_ms is None else f"{c.median_ms:.1f}"
            lines.append(f"{c.method:<16}{c.n:>6}{cov:>10}{se:>8}{q:>10}"
                         f"{c.fell_outside:>9}{bend:>6}{c.failures:>6}{ms:>9}")
        return lines


def _one_replication(node, families, models, config: StudyConfig, master, ni, n, rep):
    rep_seed = child_seedseq(master, ni, rep)
    s = len(models)
    datasets = [sample_lifetimes(models[i], n, generator(rep_seed, 0, i)) for i in range(s)]
    delta_masks = None
    recensor = None
    if config.censoring_fraction:
        n_tilde = censoring_count(n, config.censoring_fraction)
        censored = [type2_censor(d, n_tilde) for d in datasets]
        boot_data = [impute(families[i], censored[i], config.impute_mode) for i in range(s)]
        delta_data = [cd.times for cd in censored]
        delta_masks = [cd.censored for cd in censored]
        if config.reimpute_in_resamples:
            recensor = [n_tilde] * s
    else:
        boot_data = datasets
        delta_data = datasets

    grid = None
    if config.bend_back:
        grid = default_t_grid(config.t, config.bend_back_points, config.bend_back_decades)

    out = {}
    for mi, method in enumerate(config.methods):
        is_delta = method in ("delta", "delta-standard")
        data = delta_data if is_delta else boot_data
        masks = delta_masks if is_delta else None
        seed_m = child_seedseq(rep_seed, 1 + mi)
        start = time.perf_counter()
        try:
            res = compute_lcl(method, node, families, data, config.t, config.alpha,
                              config.B, config.C, seed_m,
                              paper_literal_aux=config.paper_literal_aux,
                              censored_masks=masks,
                              recensor_n_tilde=recensor if method == "dbp" else None)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            rec = {
                "error": None,
                "lcl": res.lcl,
                "raw": res.raw_value,
                "fell_outside": res.fell_outside,
                "boundary_hits": res.boundary_hits,
                "ms": elapsed_ms,
            }
            if grid is not None:
                rec["bend_violations"] = detect_bend_back(
                    method, node, families, data, grid, config.alpha, config.B,
                    config.C, child_seedseq(rep_seed, 100 + mi),
                    paper_literal_aux=config.paper_literal_aux, censored_masks=masks)
        except RelboundError as exc:
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        out[method] = rec
    return out


def _map_replications(fn, replications: int, threads: int):
    if threads <= 1:
        return [fn(rep) for rep in range(replications)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(replications)))


def run_coverage_study(config: StudyConfig) -> CoverageReport:
    """Run the full study described by ``config``.

    Per-replication failures are recorded, not fatal; aggregate statistics are
    computed over the successful replications of each (method, n) cell.
    """
    node = parse_structure(config.structure)
    families, models, solved = _resolve_models(config, node)
    r_true = float(eval_reliability(
        node, [component_reliability(m, config.t) for m in models]))

    cells = []
    for ni, n in enumerate(config.n_values):
        records = _map_replications(
            lambda rep: _one_replication(node, families, models, config,
                                         as_seedseq(config.seed), ni, n, rep),
            config.replications, config.threads)
        for method in config.methods:
            recs = [r[method] for r in records]
            ok = [r for r in recs if r["error"] is None]
            failures = len(recs) - len(ok)
            if ok:
                lcls = np.array([r["lcl"] for r in ok])
                raws = np.array([r["raw"] for r in ok])
                coverage = float(np.mean(r_true >= lcls))
                coverage_se = math.sqrt(coverage * (1.0 - coverage) / len(ok))
                q_lcl = lcl_quantile(lcls, config.lcl_quantile)
                fell = falling_outside_count(raws)
                boundary = int(sum(r["boundary_hits"] for r in ok))
                times_ms = [r["ms"] for r in ok]
                median_ms = float(statistics.median(times_ms))
                mean_ms = float(statistics.fmean(times_ms))
                bend = (sum(1 for r in ok if r.get("bend_violations", 0) > 0)
                        if config.bend_back else None)
            else:
                coverage = coverage_se = q_lcl = median_ms = mean_ms = None
                fell = boundary = 0
                bend = None
            cells.append(MethodCell(
                method=method, n=n, replications=config.replications,
                failures=failures, coverage=coverage, coverage_se=coverage_se,
                q_lcl=q_lcl, fell_outside=fell, bend_back=bend,
                boundary_hits=boundary, median_ms=median_ms, mean_ms=mean_ms))
    return CoverageReport(
        config=config.to_dict(),
        solved_components=solved,
        true_reliability=r_true,
        cells=tuple(cells),
    )


# --- runtime scaling ----------------------------------------------------------


def runtime_scaling_probe(config: StudyConfig, repeats: int = 3) -> dict:
    """Median per-LCL wall time of dbpt versus the nested dbp oracle across n.

    Returns the medians, the fitted log-log slopes of time versus n, and the
    oracle/dbpt speedup at the largest n.  Warm-up calls are discarded;
    timings use the monotonic clock.
    """
    if len(config.n_values) < 2:
        raise ValueError("runtime probe needs at least two sample sizes")
    node = parse_structure(config.structure)
    families, models, _ = _resolve_models(config, node)
    master = as_seedseq(config.seed)
    s = len(models)

    dbpt_ms, dbp_ms = [], []
    for ni, n in enumerate(config.n_values):
        datasets = [sample_lifetimes(models[i], n, generator(master, 0, ni, i))
                    for i in range(s)]

        def timed(method, key):
            compute_lcl(method, node, families, datasets, config.t, config.alpha,
                        config.B, config.C, child_seedseq(master, key, ni, 0))
            samples = []
            for rep in range(repeats):
                start = time.perf_counter()
                compute_lcl(method, node, families, datasets, config.t, config.alpha,
                            config.B, config.C, child_seedseq(master, key, ni, 1 + rep))
                samples.append((time.perf_counter() - start) * 1e3)
            return float(statistics.median(samples))

        dbpt_ms.append(timed("dbpt", 1))
        dbp_ms.append(timed("dbp", 2))

    log_n = np.log(np.asarray(config.n_values, dtype=float))
    dbpt_slope = float(np.polyfit(log_n, np.log(np.asarray(dbpt_ms)), 1)[0])
    dbp_slope = float(np.polyfit(log_n, np.log(np.asarray(dbp_ms)), 1)[0])
    return {
        "n": list(config.n_values),
        "B": config.B,
        "C": config.C,
        "dbpt_median_ms": dbpt_ms,
        "dbp_median_ms": dbp_ms,
        "dbpt_slope": dbpt_slope,
        "dbp_slope": dbp_slope,
        "speedup_at_max_n": dbp_ms[-1] / dbpt_ms[-1],
    }
