"""E21 — the database side at scale: per-object scan vs batch bitmask index
vs compiled SQL.

Not a paper experiment, but the measurement a database reader asks for:
executing a learned-query workload over growing nested relations.  Three
paths answer every query identically:

* the seed per-object evaluator (``QueryEngine.execute``), which
  re-abstracts every row through the vocabulary on every call;
* the batch bitmask path (``QueryEngine.execute_batch``), which builds a
  ``RelationIndex`` once and evaluates compiled queries over distinct
  masks with big-integer set algebra;
* the SQL compilation running on SQLite through a warm ``dbapi``
  backend (spot-checked on one query; the load is not timed).

E21 reports the per-object and batch timings for an 8-query workload, the
one-off index build cost, and the warm speedup.  The acceptance gate:
the batch path is ≥ 5× faster than the seed per-object path on a relation
at least 10× the seed benchmark size (4000 boxes vs the seed 400).
"""

from __future__ import annotations

import time

from repro.analysis import render_table
from repro.data import DbApiBackend, QueryEngine
from repro.data.chocolate import intro_query

SEED_STORE_BOXES = 400  # the seed E21 benchmark store size
SIZES = (400, 1600, 4000)
SPEEDUP_FLOOR = 5.0


def test_e21_engine_scaling(
    report, trend, benchmark, storefront_vocab, store_factory, engine_workload
):
    rows = []
    engine = None
    for size in SIZES:
        store = store_factory(size)
        engine = QueryEngine(store, storefront_vocab)

        t0 = time.perf_counter()
        per_object = [
            sorted(o.key for o in engine.execute(q)) for q in engine_workload
        ]
        scan_ms = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        engine.index  # one-off build, timed separately from execution
        build_ms = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        batch = [
            sorted(o.key for o in engine.execute_batch(q))
            for q in engine_workload
        ]
        batch_ms = (time.perf_counter() - t0) * 1000

        assert batch == per_object  # identical answers, always

        with DbApiBackend(store, storefront_vocab) as db:
            db.refresh()  # load outside the timer: warm, like the index
            t0 = time.perf_counter()
            via_sql = db.execute(intro_query())
            sql_ms = (time.perf_counter() - t0) * 1000
        assert sorted(o.key for o in via_sql) == batch[0]

        warm_speedup = scan_ms / batch_ms if batch_ms else float("inf")
        cold_speedup = scan_ms / (build_ms + batch_ms)
        if size == max(SIZES):
            trend(
                "e21_engine_scale_warm",
                median_s=batch_ms / 1000,
                speedup=warm_speedup,
            )
        if size >= 10 * SEED_STORE_BOXES:
            assert warm_speedup >= SPEEDUP_FLOOR, (
                f"batch path only {warm_speedup:.1f}x faster than per-object "
                f"scan at {size} boxes (floor {SPEEDUP_FLOOR}x)"
            )
        rows.append(
            [
                size,
                len(batch[0]),
                f"{scan_ms:.2f}",
                f"{build_ms:.2f}",
                f"{batch_ms:.3f}",
                f"{sql_ms:.2f}",
                f"{warm_speedup:.0f}x",
                f"{cold_speedup:.1f}x",
            ]
        )
    table = render_table(
        [
            "boxes",
            "answers(q0)",
            "per-object ms",
            "index build ms",
            "batch ms",
            "SQLite ms (q0)",
            "speedup (warm)",
            "speedup (cold)",
        ],
        rows,
        title=(
            "E21 — 8-query workload at scale: seed per-object evaluator vs "
            "batch bitmask index vs compiled SQL (answers always identical; "
            "warm = index built, cold = build included)"
        ),
    )
    report("e21_engine_scale", table)

    # pytest-benchmark on the warm batch path over the largest store.
    benchmark(engine.execute_batch, intro_query())
