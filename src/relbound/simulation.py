"""Monte Carlo study harness.

Repeated data generation, LCL computation per method, and aggregation into
empirical coverage, LCL quantiles, falling-outside and bend-back diagnostics,
plus a runtime scaling probe comparing the transformed-resample double
bootstrap against the conventional nested one.

This module computes no LCL itself.  ``compute_lcl`` dispatches to the
scalar methods of ``bootstrap`` and ``estimators``; ``lcl_curve`` checks the
grid and dispatches to ``bootstrap.bootstrap_curve`` or
``estimators.delta_curve``, whose value at each grid time is the scalar LCL
there, bit for bit.

The input records ``StudyConfig`` and ``LclRequest`` are dataclasses whose
fields are their JSON keys; they check the type of each value and refuse
settings by ``check_lcl_settings``.  A study replication keeps each method's
``LclResult``, or the error it raised; each report cell is built from one
method's records, and the CSV and printed summary walk one column table.

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
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import brentq

from .bootstrap import (bb_lcl, bootstrap_curve, bp_lcl, check_bootstrap_settings,
                        dbp_lcl_oracle, dbpt_lcl)
from .censoring import censoring_count, check_impute_mode, impute, type2_censor
from .distributions import (
    ComponentModel,
    Exponential,
    component_reliability,
    family_from_name,
    mission_grid,
    mission_times,
    sample_lifetimes,
)
from .errors import ConfigError, RelboundError
from .estimators import check_delta_settings, delta_curve, delta_lcl
from .rng import child_seedseq, generator
from .selection import empirical_quantile
from .structures import StructureNode, eval_reliability, num_components, parse_structure

__all__ = [
    "StudyConfig",
    "LclRequest",
    "check_lcl_settings",
    "MethodCell",
    "CoverageReport",
    "compute_lcl",
    "lcl_curve",
    "bend_back_violations",
    "run_coverage_study",
    "runtime_scaling_probe",
    "solve_identical_components",
    "default_t_grid",
]

METHODS = ("bp", "bb", "dbpt", "dbp", "delta", "delta-standard")
_DELTA_FORM = {"delta": "paper", "delta-standard": "standard"}  # the delta_lcl form of each
DELTA_METHODS = tuple(_DELTA_FORM)


# --- configuration ----------------------------------------------------------


def check_lcl_settings(method: str, t, alpha, B, C) -> None:
    """Refuse, by the checks the LCL call itself runs, the settings ``compute_lcl`` refuses."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")
    mission_times(t)
    if method in DELTA_METHODS:
        check_delta_settings(alpha)
    else:
        check_bootstrap_settings(method, alpha, B, C)


def _as_int(name, value) -> int:
    """An int, or a float with an integral value such as 1000.0; nothing else."""
    integral = (isinstance(value, (int, np.integer))
                or isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not integral or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """An int or a float; not a flag, a string or anything else."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, (bool, np.bool_)))


def _as_float(name, value) -> float:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_bool(name, value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


# JSON values take the type their field is annotated with: strings are
# converted; ints, floats and flags are checked, and an optional float may be None
_CASTS = {"str": lambda name, value: str(value), "int": _as_int, "float": _as_float,
          "Optional[float]": lambda name, value: None if value is None else _as_float(name, value),
          "bool": _as_bool}


def _cast_fields(record) -> None:
    """Normalise each str, int, float and bool field of a frozen ``record`` to its type."""
    for f in fields(record):
        if f.type in _CASTS:
            object.__setattr__(record, f.name, _CASTS[f.type](f.name, getattr(record, f.name)))


def _from_json(cls, raw, what: str, renamed: dict, **given):
    """A ``cls`` record from the JSON object ``raw``; an unknown or missing key is a ConfigError.

    ``renamed`` maps a field to its key where they differ, or to None for a
    field with no key of its own, which the caller passes in ``given``;
    ``given`` also overrides the values ``raw`` holds.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    keys = {renamed.get(f.name, f.name): f for f in fields(cls) if renamed.get(f.name, f.name)}
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, f in keys.items():
        if f.default is MISSING and key not in raw:
            raise ConfigError(f"{what} is missing required key {key!r}")
    try:
        return cls(**{**{keys[key].name: value for key, value in raw.items()}, **given})
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"malformed {what} value: {exc}") from exc


# Field name -> JSON key where they differ: ``n_values`` is ``n``, and the bend-back
# fields form the ``bend_back`` group, whose ``enabled`` may stand alone as ``bend_back``.
_RENAMED = {"n_values": "n", "bend_back_points": None, "bend_back_decades": None}
_BEND_BACK = {"bend_back": "enabled", "bend_back_points": "points", "bend_back_decades": "decades"}


@dataclass(frozen=True)
class StudyConfig:
    """Settings of one coverage study.

    The fields, in order, are the JSON schema of a study config and of its
    ``config_echo.json`` (see README), with ``n_values`` as ``n`` and the
    bend-back fields as the ``bend_back`` group.  Building a config, directly
    or through :meth:`from_dict`, normalises the values to the field types
    and refuses the settings every replication would reject (see README),
    among them those ``check_lcl_settings`` refuses for any of its methods
    and those the study's setup refuses as it is built.  That setup (the
    parsed structure and the solved components) is kept with the config, and
    the study's runs use it.
    """

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
        put = partial(object.__setattr__, self)
        _cast_fields(self)
        put("n_values", tuple(_as_int("n", n) for n in self.n_values))
        put("methods", tuple(str(m) for m in self.methods))
        put("components", tuple(dict(c) for c in self.components) if self.components else None)

        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n must be a non-empty list of positive sizes")
        if not self.methods:
            raise ValueError("methods list is empty")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods {list(self.methods)} list a method twice")
        # made here so that a study cannot die in replication 1
        for method in self.methods:
            check_lcl_settings(method, self.t, self.alpha, self.B, self.C)
        if (self.components is None) == (self.target_reliability is None):
            raise ValueError(
                "give either explicit 'components' or 'family' + 'target_reliability'"
            )
        check_impute_mode(self.impute_mode)
        if not 0.0 < self.lcl_quantile < 1.0:
            raise ValueError("lcl_quantile must lie inside (0, 1)")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        # built once, as the check of these settings; not a field, so neither
        # compared nor echoed
        put("_setup", _study_setup(self))

    @classmethod
    def from_dict(cls, raw: dict, **given) -> "StudyConfig":
        """The config the JSON object ``raw`` describes, with the fields ``given`` set over it."""
        bend = raw.get("bend_back") if isinstance(raw, dict) else None
        if not isinstance(bend, dict):
            return _from_json(cls, raw, "config", _RENAMED, **given)
        bad = set(bend) - set(_BEND_BACK.values())
        if bad:
            raise ConfigError(f"unknown bend_back keys: {sorted(bad)}")
        group = {name: bend[key] for name, key in _BEND_BACK.items() if key in bend}
        # a bend_back group switches the scan on unless it says otherwise
        enabled = group.pop("bend_back", True)
        return _from_json(cls, {**raw, "bend_back": enabled}, "config", _RENAMED,
                          **{**group, **given})

    def to_dict(self) -> dict:
        out = {}
        for name, value in asdict(self).items():
            value = list(value) if isinstance(value, tuple) else value
            if name in _BEND_BACK:
                out.setdefault("bend_back", {})[_BEND_BACK[name]] = value
            else:
                out[_RENAMED.get(name, name)] = value
        return out


# The key sets a request's ``components`` entry may have
_ENTRY_KEYS = ({"id", "family", "times"}, {"id", "family", "times", "censored"},
               {"id", "family", "data_file"})


@dataclass(frozen=True)
class LclRequest:
    """Settings and component entries of one LCL.

    The fields, in order, are the JSON schema of an LCL request (see README).
    Building a request normalises it like a :class:`StudyConfig`, puts the
    components in id order, and refuses the settings ``check_lcl_settings``
    refuses, a structure that does not parse and a malformed ``components``.
    The parsed structure is kept as :attr:`node`.
    """

    structure: str
    components: tuple
    t: float
    alpha: float = 0.1
    method: str = "dbpt"
    B: int = 1000
    C: int = 500
    seed: int = 0

    def __post_init__(self):
        _cast_fields(self)
        object.__setattr__(self, "_node", parse_structure(self.structure))
        s = num_components(self.node)
        n = len(self.components) if isinstance(self.components, (list, tuple)) else None
        if n != s:
            raise ConfigError(f"structure references {s} components, request lists {n or 'no'}")
        # s entries with distinct ids among c1..cs name every component once
        ids, by_id = [f"c{i + 1}" for i in range(s)], {}
        for spec in self.components:
            if not (isinstance(spec, dict) and set(spec) in _ENTRY_KEYS):
                raise ConfigError(f"component {spec!r}: each component is an object with "
                                  "'id', 'family', and inline 'times' (with optional "
                                  "'censored' flags) or a 'data_file', and no other key")
            if spec["id"] not in ids or spec["id"] in by_id:
                raise ConfigError(f"component id {spec['id']!r}: ids are {ids}, each used once")
            times = spec.get("times", [])
            bad = ([x for x in times if not _is_number(x)] if isinstance(times, (list, tuple))
                   else [times])
            if bad:
                raise ConfigError(f"component {spec['id']}: times must be a list of numbers, "
                                  f"got {bad[0]!r}")
            _entry_family(spec)
            by_id[spec["id"]] = dict(spec)
        object.__setattr__(self, "components", tuple(by_id[i] for i in ids))
        check_lcl_settings(self.method, self.t, self.alpha, self.B, self.C)

    @property
    def node(self) -> StructureNode:
        """The tree ``structure`` describes, parsed once, when the request was built."""
        return self._node

    @classmethod
    def from_dict(cls, raw: dict, **given) -> "LclRequest":
        """The request the JSON object ``raw`` describes, with the fields ``given`` set over it."""
        return _from_json(cls, raw, "request", {}, **given)


def _entry_family(spec: dict):
    """The family a ``components`` entry names; an unknown family is a ConfigError."""
    try:
        return family_from_name(spec.get("family"))
    except ValueError as exc:
        raise ConfigError(f"component {spec}: {exc}") from None


def _component_model(spec: dict) -> ComponentModel:
    """The model of one ``components`` entry: a family and each of its ``params``."""
    family = _entry_family(spec)
    needed = set(family.params)
    given = set(spec) - {"family"}
    if given != needed:
        raise ConfigError(f"{family.name} component {spec}: missing {sorted(needed - given)}, "
                          f"unexpected {sorted(given - needed)}")
    return ComponentModel(family, **{key: _as_float(key, spec[key]) for key in family.params})


def solve_identical_components(node: StructureNode, family, target_r: float, t: float):
    """Parameters of identical components hitting a target system reliability.

    The per-component reliability solves psi(r, ..., r) = R by bisection
    (monotone by coherence); two-parameter families then fix sigma = 1 and
    place mu accordingly, exponentials solve the rate.
    """
    s = num_components(node)

    def psi(r):
        return eval_reliability(node, [r] * s)

    # psi(lo) >= 0 and psi(hi) <= 1, so a target outside (0, 1) is out of reach too
    lo, hi = 1e-15, 1.0 - 1e-15
    if not psi(lo) < target_r < psi(hi):
        raise ValueError(f"target reliability {target_r!r} is out of reach: identical "
                         f"components give {psi(lo)!r} to {psi(hi)!r}")
    r_star = brentq(lambda r: psi(r) - target_r, lo, hi, xtol=1e-15, rtol=8.881784197001252e-16)
    if isinstance(family, Exponential):
        model = ComponentModel(family, rate=-math.log(r_star) / t)
    else:
        model = ComponentModel(family, mu=math.log(t) - float(family.isf(r_star)), sigma=1.0)
    return [model] * s, r_star


class _Setup(NamedTuple):
    """What every replication of a study shares."""

    node: StructureNode
    families: list
    models: list
    solved: Optional[list]  # the solved-components record, in target mode
    grid: Optional[np.ndarray]  # the bend-back grid, with the scan
    observed: Optional[list]  # the observed-failure count at each n, with censoring


def _study_setup(config: StudyConfig) -> _Setup:
    """The setup of a study; building it is also its config's check of these settings."""
    node = parse_structure(config.structure)
    if config.components is not None:
        s = num_components(node)
        if len(config.components) != s:
            raise ConfigError(f"structure references {s} components, "
                              f"config lists {len(config.components)}")
        models = [_component_model(spec) for spec in config.components]
        solved = None
    else:
        family = family_from_name(config.family)
        models, r_star = solve_identical_components(node, family, config.target_reliability,
                                                    config.t)
        solved = [{"family": family.name, **models[0].params, "per_component_r": r_star}]
    grid = observed = None
    if config.bend_back:
        try:
            grid = _check_t_grid(default_t_grid(config.t, config.bend_back_points,
                                                config.bend_back_decades))
        except ValueError as exc:
            raise ValueError(f"bend-back grid of {config.bend_back_decades!r} decades: "
                             f"{exc}") from None
    if config.censoring_fraction is not None:
        observed = [censoring_count(n, config.censoring_fraction) for n in config.n_values]
    return _Setup(node, [model.family for model in models], models, solved, grid, observed)


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
    if method in DELTA_METHODS:
        return delta_lcl(node, families, datasets, t, alpha, form=_DELTA_FORM[method],
                         censored_masks=censored_masks)
    raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")


def default_t_grid(t: float, points: int = 50, decades: float = 1.0) -> np.ndarray:
    """Log-spaced grid bracketing the mission time.

    A span past the float range gives times of 0, inf or NaN, without a
    warning; the grid check of ``lcl_curve`` refuses them.
    """
    half = decades / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.logspace(math.log10(t) - half, math.log10(t) + half, points)


def _check_t_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array, refused unless it holds 2 or more increasing mission times."""
    t_grid = mission_grid(t_grid)
    if t_grid.size < 2:
        raise ValueError("t_grid needs at least 2 points")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t_grid


def lcl_curve(method: str, node: StructureNode, families, datasets, t_grid,
              alpha=0.1, B: int = 1000, C: int = 500, seed=None, *,
              paper_literal_aux=False, censored_masks=None) -> np.ndarray:
    """LCL along a time grid under common random numbers.

    All auxiliary draws (or dataset resamples for the oracle) are generated
    once from ``seed`` and reused across the grid, so the returned curve is a
    function of time only and monotonicity can be checked without bootstrap
    noise.  Entry g is the ``raw_value`` of ``compute_lcl`` at ``t_grid[g]``
    with the same seed, and the inputs ``compute_lcl`` rejects are rejected
    here with the same error.
    """
    t_grid = _check_t_grid(t_grid)
    if method in DELTA_METHODS:
        return delta_curve(node, families, datasets, t_grid, alpha, form=_DELTA_FORM[method],
                           censored_masks=censored_masks)
    return bootstrap_curve(method, node, families, datasets, t_grid, alpha, B, C, seed,
                           paper_literal_aux=paper_literal_aux)


def bend_back_violations(curve) -> int:
    """Grid-adjacent monotonicity violations: LCL(t_{k+1}) > LCL(t_k) + 1e-12.

    A curve drawn under common random numbers bends back when the count is
    positive.
    """
    curve = np.asarray(curve)
    return int(np.sum(curve[1:] > curve[:-1] + 1e-12))


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

    def to_json_dict(self) -> dict:
        # timing stays out: the JSON report is byte-identical for a fixed seed
        return {k: v for k, v in asdict(self).items() if k != "median_ms"}


# The report's columns: field, CSV header and format, summary header, width and
# format.  A None value is empty in the CSV and "-" in the summary; the CSV
# header of q_lcl names the study's lcl_quantile, in percent.
_COLUMNS = (
    ("method", "method", "", "method", "<16", ""),
    ("n", "n", "", "n", ">6", ""),
    ("coverage", "coverage", ".6f", "coverage", ">10", ".4f"),
    ("coverage_se", "coverage_se", ".6f", "se", ">8", ".4f"),
    ("q_lcl", "q{q:g}_lcl", ".10g", "q_lcl", ">10", ".4f"),
    ("fell_outside", "fell_outside", "", "outside", ">9", ""),
    ("bend_back", "bend_back", "", "bend", ">6", ""),
    ("failures", "failures", "", "fail", ">6", ""),
    ("median_ms", "median_ms", ".3f", "med_ms", ">9", ".1f"),
)


def _text(cell: MethodCell, name: str, fmt: str, blank: str) -> str:
    value = getattr(cell, name)
    return blank if value is None else format(value, fmt)


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
        q = 100 * self.config["lcl_quantile"]
        writer.writerow([header.format(q=q) for _, header, *_ in _COLUMNS])
        for cell in self.cells:
            writer.writerow([_text(cell, name, fmt, "") for name, _, fmt, *_ in _COLUMNS])
        return buf.getvalue()

    def summary_lines(self) -> list:
        lines = [f"true reliability R = {self.true_reliability:.6f}",
                 "".join(format(header, width) for *_, header, width, _ in _COLUMNS)]
        for cell in self.cells:
            lines.append("".join(format(_text(cell, name, fmt, "-"), width)
                                 for name, *_, width, fmt in _COLUMNS))
        return lines


def _one_replication(setup: _Setup, config: StudyConfig, ni, n, rep) -> dict:
    """Each method's run on replication ``rep`` at size ``n``, by method.

    A run is ``(LclResult, ms, bend-back count)``, the count None without the
    scan, or the RelboundError it raised as ``"Type: message"``.  A refused
    draw fails every method, a failed imputation the bootstrap ones.
    """
    node, families, models, grid = setup.node, setup.families, setup.models, setup.grid
    rep_seed = child_seedseq(config.seed, ni, rep)
    s = len(models)
    delta_data = delta_masks = recensor = None
    try:
        boot_data = delta_data = [sample_lifetimes(models[i], n, generator(rep_seed, 0, i))
                                  for i in range(s)]
        if config.censoring_fraction:
            n_tilde = setup.observed[ni]
            censored = [type2_censor(d, n_tilde) for d in delta_data]
            delta_data = [cd.times for cd in censored]
            delta_masks = [cd.censored for cd in censored]
            recensor = [n_tilde] * s if config.reimpute_in_resamples else None
            boot_data = [impute(families[i], censored[i], config.impute_mode) for i in range(s)]
    except RelboundError as exc:
        boot_data = exc  # fails each method below that would run on it
        delta_data = exc if delta_data is None else delta_data

    runs = {}
    for mi, method in enumerate(config.methods):
        data = delta_data if method in DELTA_METHODS else boot_data
        start = time.perf_counter()
        try:
            if isinstance(data, RelboundError):
                raise data
            res = compute_lcl(method, node, families, data, config.t, config.alpha,
                              config.B, config.C, child_seedseq(rep_seed, 1 + mi),
                              paper_literal_aux=config.paper_literal_aux,
                              censored_masks=delta_masks, recensor_n_tilde=recensor)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            bend = None if grid is None else bend_back_violations(lcl_curve(
                method, node, families, data, grid, config.alpha, config.B, config.C,
                child_seedseq(rep_seed, 100 + mi), paper_literal_aux=config.paper_literal_aux,
                censored_masks=delta_masks))
            runs[method] = (res, elapsed_ms, bend)
        except RelboundError as exc:
            runs[method] = f"{type(exc).__name__}: {exc}"
    return runs


def _method_cell(config: StudyConfig, method: str, n: int, runs: list,
                 r_true: float) -> MethodCell:
    """The cell of ``method`` at size ``n`` from its runs, one per replication.

    Its statistics are taken over the runs that did not fail.
    """
    ok = [run for run in runs if not isinstance(run, str)]
    failures = len(runs) - len(ok)
    if not ok:
        return MethodCell(method=method, n=n, replications=len(runs), failures=failures,
                          coverage=None, coverage_se=None, q_lcl=None, fell_outside=0,
                          bend_back=None, boundary_hits=0, median_ms=None)
    results, ms, bends = zip(*ok)
    lcls = np.array([res.lcl for res in results])
    coverage = float(np.mean(r_true >= lcls))
    return MethodCell(
        method=method, n=n, replications=len(runs), failures=failures, coverage=coverage,
        coverage_se=math.sqrt(coverage * (1.0 - coverage) / len(ok)),
        q_lcl=empirical_quantile(lcls, config.lcl_quantile),
        fell_outside=sum(res.fell_outside for res in results),
        bend_back=sum(bend > 0 for bend in bends) if config.bend_back else None,
        boundary_hits=sum(res.boundary_hits for res in results),
        median_ms=float(statistics.median(ms)))


def _map_replications(fn, replications: int, threads: int):
    if threads <= 1:
        return [fn(rep) for rep in range(replications)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(replications)))


def run_coverage_study(config: StudyConfig) -> CoverageReport:
    """Run the full study described by ``config``.

    A RelboundError in one method's LCL, bend-back scan or imputation fails
    that method's replication, not the study; aggregate statistics are
    computed over the successful replications of each (method, n) cell.
    """
    setup = config._setup
    r_true = float(eval_reliability(
        setup.node, [component_reliability(m, config.t) for m in setup.models]))

    cells = []
    for ni, n in enumerate(config.n_values):
        runs = _map_replications(lambda rep: _one_replication(setup, config, ni, n, rep),
                                 config.replications, config.threads)
        cells += [_method_cell(config, method, n, [r[method] for r in runs], r_true)
                  for method in config.methods]
    return CoverageReport(
        config=config.to_dict(),
        solved_components=setup.solved,
        true_reliability=r_true,
        cells=tuple(cells),
    )


# --- runtime scaling ----------------------------------------------------------


def runtime_scaling_probe(config: StudyConfig, repeats: int = 3) -> dict:
    """Median per-LCL wall time of dbpt versus the nested dbp oracle across n.

    Returns the medians, the fitted log-log slopes of time versus n, and the
    oracle/dbpt speedup at the largest n.  Each timing loop's first pass warms
    up and is dropped; timings use the monotonic clock.
    """
    if len(config.n_values) < 2:
        raise ValueError("runtime probe needs at least two sample sizes")
    node, families, models = config._setup[:3]
    s = len(models)

    dbpt_ms, dbp_ms = [], []
    for ni, n in enumerate(config.n_values):
        datasets = [sample_lifetimes(models[i], n, generator(config.seed, 0, ni, i))
                    for i in range(s)]

        def timed(method, key):
            samples = []
            for rep in range(1 + repeats):  # pass 0 warms up and is dropped
                start = time.perf_counter()
                compute_lcl(method, node, families, datasets, config.t, config.alpha,
                            config.B, config.C, child_seedseq(config.seed, key, ni, rep))
                samples.append((time.perf_counter() - start) * 1e3)
            return float(statistics.median(samples[1:]))

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
