"""The benchmark's workloads: inputs, calls into relbound, and output checks.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned.  The LCL workloads stand for a library user or
the CLI waiting for one LCL; the study workloads for a researcher waiting for
a coverage study.  Inputs are derived from the run seed alone, and relbound
only ever sees the generated datasets and configs.

A *round* is the smallest batch of calls in which every cell of a workload
occurs equally often; runs are measured in whole rounds so that the mix of
cells, and with it the latency percentiles, does not depend on where the
clock ran out.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

import relbound as rb
from relbound import simulation
from relbound.cli import dumps

ALPHA = 0.1
MISSION_T = 1.0
LCL_TARGET_R = 0.9
REFERENCE_SEED = 20251017

# The LCL matrix: each (structure, family) system runs at every n in LCL_N.
LCL_SYSTEMS = (
    ("series(c1,c2,c3)", "weibull"),
    ("series(c1,c2,c3)", "lognormal"),
    ("koutofn(2; c1,c2,c3,c4,c5)", "weibull"),
    ("series(c1,...,c16)", "weibull"),
    ("parallel(c1,c2,c3)", "exponential"),
)
LCL_N = (5, 50)

# Mirrors configs/table1_desk.json; copied so the workload stays fixed when
# the shipped configs change.  B, C, points, replications and threads are
# set from Sizes.
BENDBACK_STUDY = {
    "structure": "series(c1,c2,c3)",
    "family": "weibull",
    "target_reliability": 0.9548,
    "t": 1.0,
    "n": [5],
    "methods": ["bp", "dbpt", "delta"],
    "alpha": ALPHA,
    "bend_back": {"enabled": True, "decades": 1.0},
}

# Mirrors configs/censored_parallel.json, with the four methods that run on
# censored data.
CENSORED_STUDY = {
    "structure": "parallel(c1,c2,c3)",
    "family": "weibull",
    "target_reliability": 0.9988,
    "t": 1.0,
    "n": [20],
    "methods": ["bp", "dbpt", "delta", "delta-standard"],
    "alpha": ALPHA,
    "censoring_fraction": 0.3,
}

# Results that must be finite, and those that must also lie in [0, 1].
MUST_BE_FINITE = ("bp", "dbpt", "delta-standard")
MUST_BE_UNIT = ("bp", "dbpt")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark mode."""

    B: int
    C: int
    datasets_per_cell: int
    bendback_points: int
    bendback_reps: int
    censored_reps: int
    censored_threads: int
    reference_reps: int
    setup_probes: int


FULL = Sizes(B=1000, C=500, datasets_per_cell=64, bendback_points=50,
             bendback_reps=1, censored_reps=8, censored_threads=2,
             reference_reps=4, setup_probes=3)
SMOKE = replace(FULL, B=20, C=10, datasets_per_cell=2, bendback_points=5,
                censored_reps=4, reference_reps=2, setup_probes=1)


@dataclass(frozen=True)
class Cell:
    structure: str
    family: str
    n: int
    node: object
    families: list
    models: list

    @property
    def label(self) -> str:
        return f"{self.structure}|{self.family}|n={self.n}"


@dataclass(frozen=True)
class Op:
    """One call the caller waits on."""

    method: str
    cell: Cell | None
    datasets: list | None
    seed: object
    config: rb.StudyConfig | None = None

    @property
    def label(self) -> str:
        if self.cell is None:
            return f"{self.method} seed={self.config.seed}"
        return f"{self.method}|{self.cell.label}"


class LclWorkload:
    """Single LCLs through ``compute_lcl``, cycling over the cell matrix."""

    kind = "lcl"
    pool_threads = 1

    def __init__(self, name: str, methods, sizes: Sizes):
        self.name = name
        self.methods = tuple(methods)
        self.sizes = sizes
        self.cells: list[Cell] = []
        self.pools: list[list] = []
        self.seed = None

    def setup(self, seed: int) -> None:
        """Parse, solve the component models and draw the input datasets."""
        self.seed = seed
        self.cells = []
        for structure, family_name in LCL_SYSTEMS:
            node = rb.parse_structure(structure)
            family = rb.family_from_name(family_name)
            models, _ = rb.solve_identical_components(node, family, LCL_TARGET_R, MISSION_T)
            for n in LCL_N:
                self.cells.append(Cell(structure, family_name, n, node,
                                       [family] * len(models), models))
        self.pools = [
            [[rb.sample_lifetimes(model, cell.n, np.random.default_rng([seed, k, j, i]))
              for i, model in enumerate(cell.models)]
             for j in range(self.sizes.datasets_per_cell)]
            for k, cell in enumerate(self.cells)
        ]

    def round(self, r: int) -> list[Op]:
        pool = r % self.sizes.datasets_per_cell
        return [Op(method, cell, self.pools[k][pool],
                   np.random.SeedSequence([self.seed, r, k, mi]))
                for k, cell in enumerate(self.cells)
                for mi, method in enumerate(self.methods)]

    def call(self, op: Op):
        # looked up at call time, so that a traced run sees its wrappers
        return simulation.compute_lcl(op.method, op.cell.node, op.cell.families,
                                      op.datasets, MISSION_T, ALPHA, self.sizes.B,
                                      self.sizes.C, op.seed)

    def attempted(self, op: Op) -> int:
        return 1

    def failed_within(self, op: Op, out) -> int:
        return 0

    def units(self, op: Op) -> int:
        """Per-layer metrics are per unit: one LCL here."""
        return 1

    def check(self, op: Op, out) -> list[str]:
        return check_lcl(op.method, out.lcl, out.raw_value, op.label)

    def reference(self) -> dict:
        """LCL bits of round 0 at the reference seed, keyed by op label."""
        self.setup(REFERENCE_SEED)
        return {op.label: float(self.call(op).raw_value).hex() for op in self.round(0)}


class StudyWorkload:
    """Coverage studies through ``run_coverage_study``, one study per call."""

    kind = "study"

    def __init__(self, name: str, base: dict, reps: int, threads: int, sizes: Sizes,
                 check_threads: bool = False):
        self.name = name
        self.base = dict(base, B=sizes.B, C=sizes.C, replications=reps, threads=threads)
        if "bend_back" in base:
            self.base["bend_back"] = dict(base["bend_back"], points=sizes.bendback_points)
        self.reps = reps
        self.pool_threads = threads
        self.sizes = sizes
        self.check_threads = check_threads
        self.seed = None

    def config(self, seed: int, r: int, **overrides) -> rb.StudyConfig:
        # a distinct study seed per call; 10**6 calls per run seed is ample
        return rb.StudyConfig.from_dict(dict(self.base, seed=seed * 10**6 + r, **overrides))

    def setup(self, seed: int) -> None:
        """Parse the config and solve the component models once, as a study does."""
        self.seed = seed
        config = self.config(seed, 0)
        node = rb.parse_structure(config.structure)
        family = rb.family_from_name(config.family)
        rb.solve_identical_components(node, family, config.target_reliability, config.t)

    def round(self, r: int) -> list[Op]:
        config = self.config(self.seed, r)
        return [Op("study", None, None, None, config)]

    def call(self, op: Op):
        return simulation.run_coverage_study(op.config)

    def attempted(self, op: Op) -> int:
        return self.units(op) * len(op.config.methods)

    def failed_within(self, op: Op, out) -> int:
        return sum(cell.failures for cell in out.cells)

    def units(self, op: Op) -> int:
        """Per-layer metrics are per unit: one replication (of every method) here."""
        return op.config.replications * len(op.config.n_values)

    def check(self, op: Op, out) -> list[str]:
        problems = []
        for cell in out.cells:
            where = f"{op.label} {cell.method} n={cell.n}"
            if cell.coverage is not None and not 0.0 <= cell.coverage <= 1.0:
                problems.append(f"{where}: coverage {cell.coverage} outside [0, 1]")
            if cell.q_lcl is not None:
                problems += check_lcl(cell.method, cell.q_lcl, cell.q_lcl, where)
        return problems

    def reference(self) -> dict:
        """SHA-256 of the report.json bytes at the reference seed.

        With ``check_threads`` the study also runs at 1 and 2 threads, whose
        report bytes must agree (the determinism contract).
        """
        self.setup(REFERENCE_SEED)
        reps = {"replications": self.sizes.reference_reps}
        if not self.check_threads:
            return {"report.json": report_sha256(self.config(REFERENCE_SEED, 0, **reps))}
        return {f"report.json@threads={threads}":
                report_sha256(self.config(REFERENCE_SEED, 0, threads=threads, **reps))
                for threads in (1, 2)}


def report_sha256(config: rb.StudyConfig) -> str:
    report = simulation.run_coverage_study(config)
    return hashlib.sha256(dumps(report.to_json_dict()).encode()).hexdigest()


def check_lcl(method: str, lcl: float, raw: float, where: str) -> list[str]:
    problems = []
    if method in MUST_BE_FINITE and not (math.isfinite(lcl) and math.isfinite(raw)):
        problems.append(f"{where}: non-finite result {raw!r}")
    elif method in MUST_BE_UNIT and not 0.0 <= lcl <= 1.0:
        problems.append(f"{where}: LCL {lcl!r} outside [0, 1]")
    return problems


def make(name: str, sizes: Sizes, nproc: int):
    """The workload called ``name``, at ``sizes``."""
    if name == "lcl-dbpt":
        return LclWorkload(name, ("dbpt",), sizes)
    if name == "lcl-light":
        return LclWorkload(name, ("bp", "bb", "delta", "delta-standard"), sizes)
    if name == "study-bendback":
        return StudyWorkload(name, BENDBACK_STUDY, sizes.bendback_reps, 1, sizes)
    if name == "study-censored":
        # pool threads times BLAS threads (pinned to 1) stays within nproc
        threads = max(1, min(sizes.censored_threads, nproc))
        return StudyWorkload(name, CENSORED_STUDY, sizes.censored_reps, threads, sizes,
                             check_threads=True)
    raise KeyError(name)


NAMES = ("lcl-dbpt", "lcl-light", "study-bendback", "study-censored")
