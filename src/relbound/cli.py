"""Command-line interface.

Commands: ``lcl`` (one LCL from a request file), ``simulate`` (coverage study
from a config file), ``bendback-scan`` (LCL-versus-time monotonicity scan),
``perf-probe`` (dbpt versus nested-oracle runtime scaling).  Results are
printed / written as JSON with floats at 17 significant digits; study output
files are written atomically (write-then-rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .censoring import CensoredDataset, impute
from .distributions import family_from_name
from .errors import (
    BoundaryError,
    ConfigError,
    DegenerateSampleError,
    EstimationError,
    RelboundError,
    StructureError,
    StructureParseError,
)
from .simulation import (
    DELTA_METHODS,
    StudyConfig,
    bend_back_violations,
    compute_lcl,
    default_t_grid,
    lcl_curve,
    run_coverage_study,
    runtime_scaling_probe,
)
from .structures import num_components, parse_structure

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
            flags.append(int(float(row[1])) if has_flag and len(row) > 1 else 0)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad row {row!r}") from exc
    return np.asarray(times), np.asarray(flags, dtype=bool)


def _load_request(path: str, args) -> dict:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("request must be a JSON object")
    known = {"structure", "components", "t", "alpha", "method", "B", "C", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown request keys: {sorted(unknown)}")
    for key in ("structure", "components", "t"):
        if key not in raw:
            raise ConfigError(f"request is missing required key {key!r}")

    node = parse_structure(str(raw["structure"]))
    s = num_components(node)
    specs = raw["components"]
    if not isinstance(specs, list) or len(specs) != s:
        raise ConfigError(f"structure references {s} components, request lists "
                          f"{len(specs) if isinstance(specs, list) else 'no'}")
    base = Path(path).parent
    by_id = {}
    for spec in specs:
        if "id" not in spec or "family" not in spec:
            raise ConfigError("each component needs 'id' and 'family'")
        ident = str(spec["id"])
        if not ident.startswith("c"):
            raise ConfigError(f"component id {ident!r} must look like c1, c2, ...")
        index = int(ident[1:]) - 1
        if index in by_id:
            raise ConfigError(f"duplicate component id {ident!r}")
        family = family_from_name(str(spec["family"]))
        if "times" in spec:
            times = np.asarray(spec["times"], dtype=float)
            flags = np.asarray(spec.get("censored", np.zeros(times.size)), dtype=float).astype(bool)
        elif "data_file" in spec:
            times, flags = _read_times_csv(base / spec["data_file"])
        else:
            raise ConfigError(f"component {ident}: needs inline 'times' or a 'data_file'")
        if flags.shape != times.shape:
            raise ConfigError(f"component {ident}: censored flags must align with times")
        by_id[index] = (family, times, flags)
    missing = [i for i in range(s) if i not in by_id]
    if missing:
        raise ConfigError(f"missing components {[f'c{i + 1}' for i in missing]}")

    return {
        "node": node,
        "families": [by_id[i][0] for i in range(s)],
        "times": [by_id[i][1] for i in range(s)],
        "flags": [by_id[i][2] for i in range(s)],
        "t": float(args.t if args.t is not None else raw["t"]),
        "alpha": float(args.alpha if args.alpha is not None else raw.get("alpha", 0.1)),
        "method": str(args.method or raw.get("method", "dbpt")),
        "B": int(args.B if args.B is not None else raw.get("B", 1000)),
        "C": int(args.C if args.C is not None else raw.get("C", 500)),
        "seed": int(args.seed if args.seed is not None else raw.get("seed", 0)),
        "paper_literal_aux": bool(getattr(args, "paper_literal_aux", False)),
    }


def _method_data(req):
    """The data and censoring masks the request's method consumes.

    Bootstrap methods consume imputed complete data; delta keeps the censored
    times and their masks.
    """
    censored = any(f.any() for f in req["flags"])
    if req["method"] in DELTA_METHODS:
        return req["times"], req["flags"] if censored else None
    return [impute(family, CensoredDataset(times, flags)) if flags.any() else times
            for family, times, flags in zip(req["families"], req["times"], req["flags"])], None


# --- commands ----------------------------------------------------------------


def cmd_lcl(args) -> int:
    req = _load_request(args.request, args)
    data, masks = _method_data(req)
    result = compute_lcl(
        req["method"], req["node"], req["families"], data,
        req["t"], req["alpha"], req["B"], req["C"], req["seed"],
        paper_literal_aux=req["paper_literal_aux"], censored_masks=masks,
    )
    sys.stdout.write(dumps(result.to_dict()))
    return 0


def cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    if args.replications is not None:
        raw["replications"] = args.replications
    if args.seed is not None:
        raw["seed"] = args.seed
    raw["threads"] = _resolve_threads(args)
    config = StudyConfig.from_dict(raw)
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
    req = _load_request(args.request, args)
    data, masks = _method_data(req)
    if args.t_min is not None and args.t_max is not None:
        if not 0 < args.t_min < args.t_max:
            raise ValueError("need 0 < t-min < t-max")
        grid = np.logspace(np.log10(args.t_min), np.log10(args.t_max), args.points)
    else:
        grid = default_t_grid(req["t"], args.points, args.decades)
    curve = lcl_curve(
        req["method"], req["node"], req["families"], data, grid,
        req["alpha"], req["B"], req["C"], req["seed"],
        paper_literal_aux=req["paper_literal_aux"], censored_masks=masks,
    )
    violations = bend_back_violations(curve)
    sys.stdout.write(dumps({
        "method": req["method"],
        "violations": violations,
        "bend_back": violations > 0,
        "t_grid": list(grid),
        "lcl": list(curve),
        "seed": req["seed"],
    }))
    return 0


def cmd_perf_probe(args) -> int:
    raw = _load_json(args.config)
    if args.n:
        raw["n"] = [int(x) for x in args.n.split(",")]
    if args.seed is not None:
        raw["seed"] = args.seed
    raw.setdefault("methods", ["dbpt", "dbp"])
    config = StudyConfig.from_dict(raw)
    probe = runtime_scaling_probe(config, repeats=args.repeats)
    sys.stdout.write(dumps(probe))
    return 0


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None):
        return args.threads
    env = os.environ.get("RELBOUND_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"RELBOUND_THREADS must be an integer, got {env!r}") from None
    return 1


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
                       help="worker threads (default: RELBOUND_THREADS or 1)")
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
    except (BoundaryError, ValueError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except RelboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
