import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relbound.cli import dumps, main

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")


def run_cli(args, cwd=None):
    # the absolute src path lets the subprocess import relbound from any cwd,
    # installed or not
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "relbound.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture
def request_file(tmp_path):
    rng = np.random.default_rng(1)
    payload = {
        "structure": "series(c1,c2)",
        "components": [
            {"id": "c1", "family": "weibull",
             "times": list(np.round(rng.lognormal(1.0, 0.5, 12), 6))},
            {"id": "c2", "family": "exponential", "data_file": "c2.csv"},
        ],
        "t": 1.0,
        "alpha": 0.1,
        "method": "bp",
        "B": 50,
        "C": 20,
        "seed": 42,
    }
    (tmp_path / "c2.csv").write_text(
        "time\n" + "\n".join(f"{x:.6f}" for x in rng.exponential(2.0, 10)) + "\n")
    path = tmp_path / "request.json"
    path.write_text(json.dumps(payload))
    return path


class TestDumps:
    def test_seventeen_significant_digits(self):
        text = dumps({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_deterministic_and_roundtrips(self):
        obj = {"a": [1.5, 2, None, True], "b": {"c": "s"}}
        assert dumps(obj) == dumps(obj)
        assert json.loads(dumps(obj)) == obj


class TestLclCommand:
    def test_outputs_schema(self, request_file):
        proc = run_cli(["lcl", str(request_file)])
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        for key in ("method", "lcl", "raw_value", "fell_outside", "r_hat",
                    "per_component_estimates", "seed", "diagnostics"):
            assert key in out
        assert out["method"] == "bp"
        assert 0.0 <= out["lcl"] <= 1.0
        assert len(out["per_component_estimates"]) == 2

    def test_byte_identical_across_runs(self, request_file):
        a = run_cli(["lcl", str(request_file), "--seed", "42"])
        b = run_cli(["lcl", str(request_file), "--seed", "42"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_dbpt_defaults(self, request_file):
        raw = json.loads(request_file.read_text())
        del raw["method"], raw["B"], raw["C"]
        request_file.write_text(json.dumps(raw))
        proc = run_cli(["lcl", str(request_file)])
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["method"] == "dbpt"
        assert out["B"] == 1000 and out["C"] == 500

    def test_bp_b10_is_minimum_of_ten(self, request_file):
        proc = run_cli(["lcl", str(request_file), "--B", "10", "--method", "bp"])
        out = json.loads(proc.stdout)
        proc_half = run_cli(["lcl", str(request_file), "--B", "10", "--method", "bp",
                             "--alpha", "0.5"])
        out_half = json.loads(proc_half.stdout)
        assert out["lcl"] <= out_half["lcl"]

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["lcl", str(bad)]).returncode == 2
        missing = tmp_path / "nope.json"
        assert run_cli(["lcl", str(missing)]).returncode == 2

    def test_structure_error_exit_2(self, request_file, tmp_path):
        raw = json.loads(request_file.read_text())
        raw["structure"] = "series(c1,"
        bad = tmp_path / "bad_structure.json"
        bad.write_text(json.dumps(raw))
        assert run_cli(["lcl", str(bad)]).returncode == 2

    def test_estimation_error_exit_3(self, request_file, tmp_path):
        raw = json.loads(request_file.read_text())
        raw["components"][0]["times"] = [2.0]  # too few for a two-parameter fit
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(raw))
        (tmp_path / "c2.csv").write_text("time\n1.0\n2.0\n")
        assert run_cli(["lcl", str(bad)], cwd=tmp_path).returncode == 3

    def test_invalid_alpha_exit_4(self, request_file):
        assert run_cli(["lcl", str(request_file), "--alpha", "1.5"]).returncode == 4

    def test_duplicate_component_id_exit_2(self, request_file, tmp_path):
        raw = json.loads(request_file.read_text())
        raw["components"][1]["id"] = "c1"
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(raw))
        assert run_cli(["lcl", str(bad)], cwd=tmp_path).returncode == 2

    def test_censored_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        times = np.sort(rng.exponential(1.0, 10))
        rows = ["time,censored"]
        rows += [f"{t:.6f},0" for t in times[:7]]
        rows += [f"{times[6]:.6f},1"] * 3
        (tmp_path / "cens.csv").write_text("\n".join(rows) + "\n")
        payload = {
            "structure": "series(c1)",
            "components": [{"id": "c1", "family": "weibull", "data_file": "cens.csv"}],
            "t": 0.5, "method": "dbpt", "B": 50, "C": 20, "seed": 1,
        }
        req = tmp_path / "censored.json"
        req.write_text(json.dumps(payload))
        proc = run_cli(["lcl", str(req)])
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert 0.0 <= out["lcl"] <= 1.0


class TestSimulateCommand:
    def test_smoke_config_runs_and_writes(self, tmp_path):
        config = {
            "structure": "series(c1,c2)",
            "t": 1.0,
            "n": [6],
            "methods": ["bp"],
            "family": "exponential",
            "target_reliability": 0.9,
            "B": 20,
            "replications": 1,
            "seed": 7,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        proc = run_cli(["simulate", str(cfg), "--out", str(out_dir)])
        assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "report.csv", "config_echo.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["results"][0]["coverage"] in (0.0, 1.0)

    def test_replication_override_and_summary(self, tmp_path):
        config = {
            "structure": "series(c1)",
            "t": 1.0,
            "n": [5],
            "methods": ["bp"],
            "family": "exponential",
            "target_reliability": 0.8,
            "B": 20,
            "replications": 99,
            "seed": 7,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli(["simulate", str(cfg), "--out", str(tmp_path / "o"),
                        "--replications", "2"])
        assert proc.returncode == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["results"][0]["replications"] == 2

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"structure": "series(c1)"}))
        assert run_cli(["simulate", str(cfg), "--out", str(tmp_path / "o")]).returncode == 2


class TestOtherCommands:
    def test_bendback_scan(self, request_file):
        proc = run_cli(["bendback-scan", str(request_file), "--points", "10",
                        "--method", "bp", "--B", "50"])
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert len(out["t_grid"]) == 10 and len(out["lcl"]) == 10
        assert out["violations"] == 0
        assert out["bend_back"] is False

    def test_perf_probe(self, tmp_path):
        config = {
            "structure": "series(c1,c2)",
            "t": 1.0,
            "n": [10, 50],
            "methods": ["dbpt", "dbp"],
            "family": "lognormal",
            "target_reliability": 0.9,
            "B": 30,
            "C": 20,
            "seed": 3,
            "replications": 1,
        }
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli(["perf-probe", str(cfg), "--repeats", "2"])
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["n"] == [10, 50]
        assert out["speedup_at_max_n"] > 0

    def test_threads_env_fallback(self, tmp_path):
        config = {
            "structure": "series(c1)",
            "t": 1.0,
            "n": [5],
            "methods": ["bp"],
            "family": "exponential",
            "target_reliability": 0.9,
            "B": 20,
            "replications": 2,
            "seed": 1,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "relbound.cli", "simulate", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={"RELBOUND_THREADS": "2", "PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr


def test_main_in_process(request_file, capsys):
    assert main(["lcl", str(request_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "bp"
