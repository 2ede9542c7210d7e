#!/usr/bin/env python
"""Alternating perfbench runs of a parent and a change, judged by the claim rule.

Usage::

    python benchmarks/perf_pairs.py --parent HEAD [--change REF]
        [--workload W ...] [--pairs 10] --first-seed 301 [--trace 0]

Each side runs from a snapshot in a temporary directory: ``git archive
<ref> | tar -x`` there, or, without ``--change``, the working tree's
tracked and untracked-but-not-ignored files copied there.  Pair ``i``
runs ``perfbench/run.py`` on both snapshots with seed ``first_seed + i``
for ``BENCHMARK.json``'s ``run_seconds``; even pairs run the parent
first, odd pairs the change.  Run nothing else meanwhile: on a small
host a concurrent job skews whichever side it overlaps.

Per workload it prints one line per run (side, seed, exit code, failed
operations, correctness and the metric values), then whether every run
exited 0 with every answer correct and whether ``rounds_per_op`` and
``items_per_op`` repeat per seed (``n/a`` on engine-scan, whose
``items_per_op`` averages over however many queries a run finished).  Per metric it prints each side's
median and quartiles, the change in the median, the pairs the change won
(a tie counts for neither side) and a verdict:

``gain``
    at least 10 pairs ran, the change won at least 9 in 10 of them and
    its median is better than the parent's by more than the parent's
    interquartile range;
``too few pairs``
    the same, but over fewer than 10 pairs: no claim can rest on it;
``WORSE``
    its median is worse than the parent's by more than the metric's
    ``BENCHMARK.json`` bound;
``unresolved``
    neither, but one side's interquartile range is wider than the bound
    and not every change run beats every parent run;
``ok``
    within the bound.

Per-layer metrics (``--trace 1``) have no bound and read ``gain``,
``too few pairs`` or ``-``.  Exit status: 0 when every run exited 0
with every answer correct, 1 otherwise, 2 when a snapshot cannot be
made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: Workloads whose counts a seed does not fix, and why: their per-seed
#: repeat line reads ``n/a``.
UNREPEATED_COUNTS = {
    "engine-scan": (
        "items_per_op is the mean answers per query over the queries a "
        "timed run finished"
    ),
}
#: A claim needs at least this many pairs ...
MIN_PAIRS = 10
#: ... and wins in at least this share of them.
WIN_SHARE = 0.9


class Summary(NamedTuple):
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    change_q1: float
    change_q3: float
    #: Change of the median, relative to the parent's.
    delta: float
    wins: int
    pairs: int
    verdict: str


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _relative(value: float, base: float) -> float:
    if base:
        return (value - base) / abs(base)
    return 0.0 if value == base else float("inf") if value > base else float("-inf")


def summarise(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> Summary:
    """Judge one metric over ``len(parent)`` pairs (``parent[i]`` and
    ``change[i]`` ran on the same seed): ``better`` is ``"lower"`` or
    ``"higher"``, ``bound`` the share by which the median may worsen, or
    ``None`` for a metric without one."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if better == "higher" else -1
    p_q1, p_median, p_q3 = _quartiles(parent)
    c_q1, c_median, c_q3 = _quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    if sign > 0:
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    if wins >= WIN_SHARE * pairs and sign * (c_median - p_median) > p_q3 - p_q1:
        verdict = "gain" if pairs >= MIN_PAIRS else "too few pairs"
    elif bound is None:
        verdict = "-"
    elif -sign * _relative(c_median, p_median) > bound:
        verdict = "WORSE"
    elif spread > bound * abs(p_median) and not separated:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return Summary(
        p_median, p_q1, p_q3, c_median, c_q1, c_q3,
        _relative(c_median, p_median), wins, pairs, verdict,
    )


# ----------------------------------------------------------------------
# Snapshots and runs
# ----------------------------------------------------------------------
def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)


def snapshot(ref: str | None, into: Path) -> str:
    """Extract ``ref`` (or the working tree, for ``None``) into ``into``;
    returns a label naming what was extracted."""
    into.mkdir(parents=True)
    if ref is None:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in listed.stdout.decode().split("\0"):
            source = ROOT / name
            if name and source.is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, into / name)
        return "working tree"
    archive = _git("archive", ref)
    subprocess.run(
        ["tar", "-x", "-C", str(into)], input=archive.stdout,
        capture_output=True, check=True,
    )
    return _git("rev-parse", "--short", ref).stdout.decode().strip()


class Run(NamedTuple):
    side: str
    seed: int
    exit_code: int
    correct: bool
    failed: int
    metrics: dict[str, float]


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int, side: str) -> Run:
    """One ``perfbench/run.py`` run in ``checkout``; its last stdout line
    is the result."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return Run(side, seed, done.returncode, False, 0, {})
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return Run(side, seed, done.returncode, result["correct"], result["failed"], metrics)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _side(median: float, q1: float, q3: float) -> str:
    return f"{median:.4f} [{q1:.4f}, {q3:.4f}]"


def report(workload: str, runs: list[Run], metrics: list[dict]) -> list[str]:
    """The lines printed for one workload: one line per run, their
    health, one line per metric of ``metrics`` (``BENCHMARK.json``
    entries) and the per-seed repeat of rounds and items."""
    parent = [r for r in runs if r.side == "parent"]
    change = [r for r in runs if r.side == "change"]
    seeds = [r.seed for r in parent]
    # A layer the workload does not use reads 0 in every run.
    shown = [
        metric for metric in metrics
        if all(metric["name"] in r.metrics for r in runs)
        and any(r.metrics[metric["name"]] for r in runs)
    ]
    lines = [f"## {workload}: {len(parent)} pairs (seeds {seeds[0]}-{seeds[-1]})"]
    for r in runs:
        values = " ".join(
            f"{metric['name']}={r.metrics[metric['name']]:.6g}" for metric in shown
        )
        lines.append(
            f"{r.side:6s} seed {r.seed} exit {r.exit_code} failed {r.failed} "
            f"correct {r.correct}: {values}"
        )
    lines.append(
        f"exits parent {sorted({r.exit_code for r in parent})} "
        f"change {sorted({r.exit_code for r in change})}, "
        f"failed ops parent {sum(r.failed for r in parent)} "
        f"change {sum(r.failed for r in change)}, "
        f"all correct {all(r.correct for r in runs)}"
    )
    width = max(len(metric["name"]) for metric in metrics)
    lines.append(
        f"{'metric':{width}s}  {'parent median [Q1, Q3]':>36s}  "
        f"{'change median [Q1, Q3]':>36s}  {'delta':>8s}  wins  verdict"
    )
    for metric in shown:
        name = metric["name"]
        s = summarise(
            [r.metrics[name] for r in parent],
            [r.metrics[name] for r in change],
            metric["better"],
            metric.get("bound"),
        )
        lines.append(
            f"{name:{width}s}  "
            f"{_side(s.parent_median, s.parent_q1, s.parent_q3):>36s}  "
            f"{_side(s.change_median, s.change_q1, s.change_q3):>36s}  "
            f"{100 * s.delta:+7.1f}%  {s.wins:>2d}/{s.pairs}  {s.verdict}"
        )
    counted = ("rounds_per_op", "items_per_op")
    if workload in UNREPEATED_COUNTS:
        lines.append(
            f"rounds/items identical per seed: n/a ({UNREPEATED_COUNTS[workload]})"
        )
    elif all(name in r.metrics for r in runs for name in counted):
        same = all(
            p.metrics[name] == c.metrics[name]
            for p, c in zip(parent, change)
            for name in counted
        )
        lines.append(f"rounds/items identical per seed: {same}")
    return lines


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf_pairs.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument(
        "--change", help="git ref of the change side (default: the working tree)"
    )
    parser.add_argument(
        "--workload", action="append",
        help="a BENCHMARK.json workload (repeatable; default: all of them)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.pairs < 1:
        raise SystemExit("perf_pairs: --pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as work:
        sides = {}
        try:
            for side, ref in (("parent", args.parent), ("change", args.change)):
                sides[side] = Path(work) / side
                label = snapshot(ref, sides[side])
                print(f"{side}: {label}", flush=True)
        except subprocess.CalledProcessError as error:
            print(f"perf_pairs: {error.stderr.decode().strip()}", file=sys.stderr)
            return 2
        benchmark = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in benchmark["workloads"]]
        workloads = args.workload or known
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            raise SystemExit(f"perf_pairs: unknown workload(s) {unknown}; choose from {known}")
        metrics = benchmark["per_layer" if args.trace else "end_to_end"]
        healthy = True
        for workload in workloads:
            runs: list[Run] = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(
                        sides[side], benchmark["command"], workload,
                        args.first_seed + i, benchmark["run_seconds"], args.trace, side,
                    )
                    runs.append(run)
                    print(
                        f"{workload} pair {i + 1}/{args.pairs} seed {run.seed} "
                        f"{side}: exit {run.exit_code}",
                        file=sys.stderr, flush=True,
                    )
            healthy &= all(r.exit_code == 0 and r.correct for r in runs)
            print("\n".join(report(workload, runs, metrics)), flush=True)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
