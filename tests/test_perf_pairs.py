"""The paired-run summary of benchmarks/perf_pairs.py on fixed numbers:
wins (ties count for neither side), the 10-pair, 9-in-10 and
interquartile claim rule, the bound and spread verdicts, and the report's
line per run and per-seed repeat line."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf_pairs.py"

spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)
summarise = perf_pairs.summarise

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_quartiles_and_medians():
    s = summarise(PARENT, [x + 50 for x in PARENT], "higher", 0.25)
    assert s.parent_median == 100.0
    assert (s.parent_q1, s.parent_q3) == (98.75, 101.25)
    assert s.change_median == 150.0
    assert s.delta == pytest.approx(0.5)
    assert (s.wins, s.pairs, s.verdict) == (10, 10, "gain")


def test_a_tie_counts_for_neither_side():
    change = [x + 50 for x in PARENT]
    change[3] = PARENT[3]
    s = summarise(PARENT, change, "higher", 0.25)
    assert s.wins == 9
    assert s.verdict == "gain"
    change[4] = PARENT[4]
    s = summarise(PARENT, change, "higher", 0.25)
    assert s.wins == 8
    assert s.verdict == "ok"


def test_lower_is_better_counts_drops_as_wins():
    s = summarise(PARENT, [x - 50 for x in PARENT], "lower", 0.25)
    assert (s.wins, s.verdict) == (10, "gain")
    assert s.delta == pytest.approx(-0.5)


def test_fewer_than_ten_pairs_make_no_claim():
    # One pair has no spread and two pairs a wide one, but neither, nor
    # nine pairs all won, is enough for a claim.
    for pairs in (1, 2, 9):
        s = summarise(PARENT[:pairs], [x + 50 for x in PARENT[:pairs]], "higher", 0.25)
        assert (s.wins, s.pairs, s.verdict) == (pairs, pairs, "too few pairs")
        s = summarise(PARENT[:pairs], [x - 50 for x in PARENT[:pairs]], "lower", None)
        assert s.verdict == "too few pairs"


def test_every_pair_won_by_less_than_the_iqr_is_no_claim():
    # The parent's quartiles are 2.5 apart; a 2.0 gain in every pair
    # wins 10/10 but does not clear the spread.
    s = summarise(PARENT, [x + 2.0 for x in PARENT], "higher", 0.25)
    assert s.wins == 10
    assert s.parent_q3 - s.parent_q1 == 2.5
    assert s.verdict == "ok"
    s = summarise(PARENT, [x + 2.6 for x in PARENT], "higher", 0.25)
    assert s.verdict == "gain"


def test_worse_than_the_bound():
    s = summarise(PARENT, [x * 0.7 for x in PARENT], "higher", 0.25)
    assert (s.wins, s.verdict) == (0, "WORSE")
    s = summarise(PARENT, [x * 0.8 for x in PARENT], "higher", 0.25)
    assert s.verdict == "ok"
    s = summarise(PARENT, [x * 1.3 for x in PARENT], "lower", 0.25)
    assert s.verdict == "WORSE"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    assert summarise(parent, change, "lower", 0.25).verdict == "unresolved"
    # Unless every change run beats every parent run.
    parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
    change = [9.0, 8.0, 9.0, 8.0, 9.0, 8.0, 9.0, 8.0, 9.0, 8.0]
    assert summarise(parent, change, "lower", 0.25).verdict == "ok"


def test_metric_without_a_bound():
    assert summarise(PARENT, PARENT, "lower", None).verdict == "-"
    assert summarise(PARENT, [x - 50 for x in PARENT], "lower", None).verdict == "gain"


def test_pairs_must_match():
    with pytest.raises(ValueError):
        summarise(PARENT, PARENT[:-1], "lower", 0.25)
    with pytest.raises(ValueError):
        summarise([], [], "lower", 0.25)


def test_report_prints_every_run():
    metrics = [
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
        {"name": "gc.pause_ms", "better": "lower"},
    ]
    runs = [
        perf_pairs.Run(side, seed, 0, True, 0,
                       {"throughput_per_s": value, "gc.pause_ms": 0})
        for seed, (p, c) in enumerate(zip(PARENT, [x + 50 for x in PARENT]), 301)
        for side, value in (("parent", p), ("change", c))
    ]
    lines = perf_pairs.report("engine-scan", runs, metrics)
    per_run = [line for line in lines if " seed " in line]
    assert len(per_run) == 20
    assert per_run[0] == "parent seed 301 exit 0 failed 0 correct True: throughput_per_s=100"
    assert per_run[1] == "change seed 301 exit 0 failed 0 correct True: throughput_per_s=150"
    # A metric that reads 0 in every run is left out of the table too.
    table = [line for line in lines if line.startswith("throughput_per_s")]
    assert len(table) == 1 and table[0].endswith("10/10  gain")
    assert not any(line.startswith("gc.pause_ms") for line in lines)


def _counted_runs(change_items):
    """Ten pairs with equal rounds and the given change-side items."""
    return [
        perf_pairs.Run(side, seed, 0, True, 0,
                       {"rounds_per_op": 16.9, "items_per_op": items})
        for seed in range(401, 411)
        for side, items in (("parent", 27.7), ("change", change_items))
    ]


def test_serve_workloads_report_whether_counts_repeat_per_seed():
    metrics = [{"name": "rounds_per_op", "better": "lower", "bound": 0.15}]
    lines = perf_pairs.report("serve-steady", _counted_runs(27.7), metrics)
    assert lines[-1] == "rounds/items identical per seed: True"
    lines = perf_pairs.report("serve-resume", _counted_runs(27.8), metrics)
    assert lines[-1] == "rounds/items identical per seed: False"


def test_engine_scan_counts_are_not_compared_per_seed():
    """engine-scan's items_per_op is a mean over however many queries a
    timed run finished, so it differs between sides with speed alone."""
    metrics = [{"name": "rounds_per_op", "better": "lower", "bound": 0.15}]
    lines = perf_pairs.report("engine-scan", _counted_runs(27.8), metrics)
    assert lines[-1].startswith("rounds/items identical per seed: n/a (")
    assert "timed run" in lines[-1]
