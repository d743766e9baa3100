"""Command-line interface.

Commands: ``lcl`` (one LCL from a request file), ``simulate`` (coverage study
from a config file), ``bendback-scan`` (LCL-versus-time monotonicity scan),
``perf-probe`` (dbpt versus nested-oracle runtime scaling).  Each command
loads its request or config file by one reader: ``LclRequest.from_dict`` or
``StudyConfig.from_dict``, then ``dataclasses.replace`` with each flag that
sets a field, so the flags pass the record's checks too.  ``simulate`` runs
``--threads`` workers, else ``RELBOUND_THREADS``, else the config's
``threads``.  Results are printed / written as JSON with floats at 17
significant digits; study output files are written atomically
(write-then-rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .censoring import CensoredDataset, impute
from .distributions import censoring_flags, family_from_name
from .errors import (
    ConfigError,
    DegenerateSampleError,
    EstimationError,
    RelboundError,
    StructureError,
    StructureParseError,
)
from .simulation import (
    DELTA_METHODS,
    LclRequest,
    StudyConfig,
    bend_back_violations,
    compute_lcl,
    default_t_grid,
    lcl_curve,
    run_coverage_study,
    runtime_scaling_probe,
)
from .structures import parse_structure

EXIT_PARSE = 2
EXIT_ESTIMATION = 3
EXIT_PARAMS = 4


# --- JSON with 17 significant digits ----------------------------------------


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format(x, ".17g")


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text; floats carry 17 significant digits."""

    def emit(value, depth):
        pad = " " * (indent * depth)
        pad_in = " " * (indent * (depth + 1))
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return _format_float(float(value))
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = [f"{pad_in}{json.dumps(str(k))}: {emit(v, depth + 1)}"
                     for k, v in value.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(value, (list, tuple, np.ndarray)):
            seq = list(value)
            if not seq:
                return "[]"
            items = [f"{pad_in}{emit(v, depth + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return emit(obj, 0) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- request loading ---------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _read_times_csv(path: Path):
    """CSV with one failure time per row; optional 'censored' column."""
    times, flags = [], []
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    start = 0
    has_flag = False
    try:
        float(rows[0][0])
    except ValueError:
        header = [cell.strip().lower() for cell in rows[0]]
        if header[0] not in ("time", "t"):
            raise ConfigError(f"{path}: unrecognized header {rows[0]!r}")
        has_flag = len(header) > 1 and header[1] == "censored"
        start = 1
    else:
        has_flag = len(rows[0]) > 1
    for row in rows[start:]:
        try:
            times.append(float(row[0]))
            flags.append(float(row[1]) if has_flag and len(row) > 1 else 0)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad row {row!r}") from exc
    return np.asarray(times), _censored_mask(flags, len(times), path)


def _censored_mask(flags, n: int, where) -> np.ndarray:
    """``censoring_flags`` of a component's flags, with a refusal as a ConfigError."""
    try:
        return censoring_flags(flags, n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _load_record(cls, path: str, args, defaults=None, **given):
    """``cls.from_dict`` of the JSON file at ``path``, then ``replace`` with each set flag.

    The flags are the ``args`` named like a field of ``cls`` and ``given``,
    which names the flags whose field has another name; None means unset.
    ``defaults`` supplies keys the file leaves out.
    """
    raw = _load_json(path)
    record = cls.from_dict({**defaults, **raw} if defaults and isinstance(raw, dict) else raw)
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return replace(record, **{k: v for k, v in {**flags, **given}.items() if v is not None})


def _load_request(args):
    """The request with its flags, its families, and the datasets and masks its method uses.

    Bootstrap methods consume imputed complete data; delta keeps the censored
    times and their masks.
    """
    request = _load_record(LclRequest, args.request, args)
    families = [family_from_name(spec["family"]) for spec in request.components]
    times, flags = [], []
    for spec in request.components:
        if "times" in spec:
            x = np.asarray(spec["times"], dtype=float)
            mask = _censored_mask(spec.get("censored"), x.size, f"component {spec['id']}")
        else:
            x, mask = _read_times_csv(Path(args.request).parent / spec["data_file"])
        times.append(x)
        flags.append(mask)
    if request.method in DELTA_METHODS:
        return request, families, times, flags if any(m.any() for m in flags) else None
    return request, families, [impute(family, CensoredDataset(x, mask)) if mask.any() else x
                               for family, x, mask in zip(families, times, flags)], None


def _env_threads():
    """``RELBOUND_THREADS`` as an int, or None when it is unset or empty."""
    env = os.environ.get("RELBOUND_THREADS")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"RELBOUND_THREADS must be an integer, got {env!r}") from None


# --- commands ----------------------------------------------------------------


def cmd_lcl(args) -> int:
    request, families, datasets, masks = _load_request(args)
    result = compute_lcl(request.method, parse_structure(request.structure), families, datasets,
                         request.t, request.alpha, request.B, request.C, request.seed,
                         paper_literal_aux=args.paper_literal_aux, censored_masks=masks)
    sys.stdout.write(dumps(result.to_dict()))
    return 0


def cmd_simulate(args) -> int:
    # --threads, else RELBOUND_THREADS, else the config's threads
    config = _load_record(StudyConfig, args.config, args,
                          threads=_env_threads() if args.threads is None else args.threads)
    report = run_coverage_study(config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "config_echo.json", dumps(config.to_dict()))
    _write_atomic(out_dir / "report.json", dumps(report.to_json_dict()))
    _write_atomic(out_dir / "report.csv", report.csv_text())
    for line in report.summary_lines():
        print(line)
    print(f"wrote {out_dir / 'report.csv'}, report.json, config_echo.json")
    return 0


def cmd_bendback_scan(args) -> int:
    request, families, datasets, masks = _load_request(args)
    if (args.t_min is None) != (args.t_max is None):
        raise ValueError("give both t-min and t-max, or neither")
    if args.t_min is not None:
        if not 0 < args.t_min < args.t_max:
            raise ValueError("need 0 < t-min < t-max")
        grid = np.logspace(np.log10(args.t_min), np.log10(args.t_max), args.points)
    else:
        grid = default_t_grid(request.t, args.points, args.decades)
    curve = lcl_curve(request.method, parse_structure(request.structure), families, datasets,
                      grid, request.alpha, request.B, request.C, request.seed,
                      paper_literal_aux=args.paper_literal_aux, censored_masks=masks)
    violations = bend_back_violations(curve)
    sys.stdout.write(dumps({
        "method": request.method,
        "violations": violations,
        "bend_back": violations > 0,
        "t_grid": list(grid),
        "lcl": list(curve),
        "seed": request.seed,
    }))
    return 0


def cmd_perf_probe(args) -> int:
    config = _load_record(StudyConfig, args.config, args, defaults={"methods": ["dbpt", "dbp"]},
                          n_values=[int(x) for x in args.n.split(",")] if args.n else None)
    probe = runtime_scaling_probe(config, repeats=args.repeats)
    sys.stdout.write(dumps(probe))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relbound",
        description="Lower confidence limits for coherent-system reliability "
                    "from component lifetime data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lcl = sub.add_parser("lcl", help="compute one LCL from a JSON request file")
    p_lcl.add_argument("request", help="path to the request JSON")
    _add_overrides(p_lcl)
    p_lcl.set_defaults(func=cmd_lcl)

    p_sim = sub.add_parser("simulate", help="run a coverage study from a config file")
    p_sim.add_argument("config", help="path to the study config JSON")
    p_sim.add_argument("--out", default="relbound-report", help="output directory")
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: RELBOUND_THREADS, else the "
                            "config's threads)")
    p_sim.set_defaults(func=cmd_simulate)

    p_bend = sub.add_parser("bendback-scan",
                            help="scan the LCL over a time grid for monotonicity violations")
    p_bend.add_argument("request", help="path to the request JSON")
    p_bend.add_argument("--points", type=int, default=50)
    p_bend.add_argument("--decades", type=float, default=1.0,
                        help="width of the default grid around t, in decades")
    p_bend.add_argument("--t-min", type=float, default=None)
    p_bend.add_argument("--t-max", type=float, default=None)
    _add_overrides(p_bend)
    p_bend.set_defaults(func=cmd_bendback_scan)

    p_perf = sub.add_parser("perf-probe",
                            help="time dbpt against the nested double-bootstrap oracle")
    p_perf.add_argument("config", help="study config JSON giving structure/families/B/C")
    p_perf.add_argument("--n", default=None, help="comma-separated sample sizes")
    p_perf.add_argument("--repeats", type=int, default=3)
    p_perf.add_argument("--seed", type=int, default=None)
    p_perf.set_defaults(func=cmd_perf_probe)
    return parser


def _add_overrides(sub_parser) -> None:
    sub_parser.add_argument("--method", default=None,
                            help="bp | bb | dbpt | dbp | delta | delta-standard")
    sub_parser.add_argument("--t", type=float, default=None)
    sub_parser.add_argument("--alpha", type=float, default=None)
    sub_parser.add_argument("--B", type=int, default=None)
    sub_parser.add_argument("--C", type=int, default=None)
    sub_parser.add_argument("--seed", type=int, default=None)
    sub_parser.add_argument("--paper-literal-aux", action="store_true",
                            dest="paper_literal_aux",
                            help="draw log-normal auxiliaries by the published "
                                 "t/chi-square recipe instead of the exact joint law")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StructureParseError, StructureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EstimationError, DegenerateSampleError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except RelboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
