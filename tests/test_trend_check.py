"""The perf-trend regression gate (benchmarks/check_trend.py): unit tests
for the band comparison plus a subprocess run of the exact CI invocation."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_trend.py"
BASELINE = REPO / "benchmarks" / "results" / "BENCH_baseline.json"

spec = importlib.util.spec_from_file_location("check_trend", SCRIPT)
check_trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_trend)


class TestCompare:
    def test_clean_when_above_floor(self):
        baseline = {"bench": {"min_speedup": 5.0}}
        assert check_trend.compare({"bench": {"speedup": 9.0}}, baseline) == []

    def test_regression_below_floor(self):
        baseline = {"bench": {"min_speedup": 5.0}}
        problems = check_trend.compare({"bench": {"speedup": 3.0}}, baseline)
        assert len(problems) == 1 and "3.00x" in problems[0]

    def test_missing_required_entry_fails(self):
        baseline = {"bench": {"min_speedup": 5.0}}
        problems = check_trend.compare({}, baseline)
        assert len(problems) == 1 and "missing" in problems[0]

    def test_missing_optional_entry_passes(self):
        baseline = {"bench": {"min_speedup": 5.0, "required": False}}
        assert check_trend.compare({}, baseline) == []

    def test_present_optional_entry_still_gated(self):
        baseline = {"bench": {"min_speedup": 5.0, "required": False}}
        problems = check_trend.compare({"bench": {"speedup": 1.0}}, baseline)
        assert len(problems) == 1

    def test_informational_entries_ignored(self):
        baseline = {"bench": {"note": "median only"}}
        assert check_trend.compare({}, baseline) == []

    def test_median_only_current_entry_counts_as_missing(self):
        baseline = {"bench": {"min_speedup": 2.0}}
        problems = check_trend.compare({"bench": {"median_s": 0.1}}, baseline)
        assert len(problems) == 1 and "missing" in problems[0]


class TestCommittedBaseline:
    def test_baseline_is_well_formed(self):
        baseline = json.loads(BASELINE.read_text())
        assert "e21_engine_scale_warm" in baseline
        for band in baseline.values():
            floor = band.get("min_speedup")
            assert floor is None or floor > 0

    def test_cli_invocation(self, tmp_path):
        """The exact command CI runs, against a synthetic current file."""
        current = tmp_path / "BENCH_e2x.json"
        current.write_text(
            json.dumps(
                {
                    "e21_engine_scale_warm": {"speedup": 25.0},
                    "e22_oracle_batching": {"speedup": 11.0},
                    "e23_dbapi": {"speedup": 0.2},
                    "e26_numpy_kernel": {"speedup": 31.0},
                }
            )
        )
        clean = subprocess.run(
            [sys.executable, str(SCRIPT), str(current), str(BASELINE)],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "perf trend clean" in clean.stdout

        current.write_text(
            json.dumps({"e21_engine_scale_warm": {"speedup": 1.2}})
        )
        dirty = subprocess.run(
            [sys.executable, str(SCRIPT), str(current), str(BASELINE)],
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1
        assert "REGRESSION" in dirty.stdout

    def test_cli_missing_file(self, tmp_path):
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path / "nope.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
