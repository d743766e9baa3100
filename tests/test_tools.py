"""The scripts under tools/ that assemble the BENCH record."""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record")

# a stand-in for perfbench/run.py: writes a record named like the real one
# unless told to exit first, then exits with the given code
FAKE_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if {write}:
    out = Path("perfbench/out")
    out.mkdir(parents=True, exist_ok=True)
    name = f"{{args['--workload']}}-seed{{args['--seed']}}-trace0.json"
    (out / name).write_text(json.dumps({{"workload": args["--workload"], "fresh": True}}))
sys.exit({code})
"""


def _checkout(root: Path, write: bool, code: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(write=write, code=code))
    return root


def _run_pairs(tmp_path, change):
    args = argparse.Namespace(parent=str(_checkout(tmp_path / "parent", True, 0)),
                              change=str(change), runs=str(tmp_path / "runs"), pairs=2,
                              seconds=1.0, seed=3, workload=["lcl-light"])
    return bench_record.run_pairs(args)


class TestRunPairs:
    def test_records_are_copied_per_pair_and_side(self, tmp_path):
        # exit 1 is a run that was not correct: its record still counts
        assert _run_pairs(tmp_path, _checkout(tmp_path / "change", True, 1)) == 0
        for pair in ("pair-01", "pair-02"):
            for side in ("parent", "change"):
                record = tmp_path / "runs" / pair / side / "lcl-light-seed3-trace0.json"
                assert json.loads(record.read_text())["fresh"]

    @pytest.mark.parametrize("code", [2, 0])
    def test_a_run_that_writes_no_record_stops_the_pairs(self, tmp_path, code):
        # a stale record from an earlier run is deleted, never copied as this pair's
        change = _checkout(tmp_path / "change", False, code)
        stale = change / "perfbench" / "out" / "lcl-light-seed3-trace0.json"
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps({"workload": "lcl-light", "fresh": False}))
        with pytest.raises(SystemExit, match=f"pair 1 change lcl-light: perfbench exited {code}"):
            _run_pairs(tmp_path, change)
        assert not stale.exists()
        assert not (tmp_path / "runs" / "pair-01" / "change" / stale.name).exists()
