#!/usr/bin/env python
"""Perf-trend regression gate: diff BENCH_e2x.json against a baseline band.

Usage::

    python benchmarks/check_trend.py [CURRENT] [BASELINE]

defaults: ``benchmarks/out/BENCH_e2x.json`` (written by every benchmark
session, see ``benchmarks/conftest.py``) vs the committed
``benchmarks/results/BENCH_baseline.json``.

The baseline pins a *band*, not a point: raw medians vary wildly across
machines, but the explicit speedup records (warm-vs-cold, batched
vs sequential, tabled kernel vs scan…) are dimensionless and stable,
so each baseline entry carries ``min_speedup`` — the floor below which a
run is a regression — derived from the committed result tables with
generous tolerance under the per-experiment gates.  Entries marked
``"required": false`` may be absent from the current run (benchmarks that
self-skip) but still fail when present-and-regressed.

Exit status: 0 clean, 1 regression(s) found, 2 usage/IO error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_CURRENT = Path(__file__).parent / "out" / "BENCH_e2x.json"
DEFAULT_BASELINE = Path(__file__).parent / "results" / "BENCH_baseline.json"


def compare(current: dict, baseline: dict) -> list[str]:
    """Return one message per violated baseline entry (empty = clean)."""
    problems: list[str] = []
    for name, band in sorted(baseline.items()):
        floor = band.get("min_speedup")
        if floor is None:
            continue  # informational entry, nothing to gate
        entry = current.get(name)
        speedup = entry.get("speedup") if isinstance(entry, dict) else None
        if speedup is None:
            if band.get("required", True):
                problems.append(
                    f"{name}: missing from the current run "
                    f"(baseline requires speedup >= {floor}x)"
                )
            continue
        if speedup < floor:
            problems.append(
                f"{name}: speedup regressed to {speedup:.2f}x "
                f"(baseline floor {floor}x)"
            )
    return problems


def main(argv: list[str]) -> int:
    current_path = Path(argv[1]) if len(argv) > 1 else DEFAULT_CURRENT
    baseline_path = Path(argv[2]) if len(argv) > 2 else DEFAULT_BASELINE
    try:
        current = json.loads(current_path.read_text())
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_trend: {error}", file=sys.stderr)
        return 2
    problems = compare(current, baseline)
    checked = sum(1 for band in baseline.values() if "min_speedup" in band)
    if problems:
        for problem in problems:
            print(f"REGRESSION {problem}")
        return 1
    print(
        f"perf trend clean: {checked} speedup band(s) of "
        f"{baseline_path.name} hold in {current_path.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
