"""E24 — process-parallel shard evaluation: speedup vs worker count.

Not a paper experiment, but the measurement the `repro.parallel`
subsystem (DESIGN.md §2d) exists to answer: once shard state lives in
persistent worker processes, how does the steady-state **evaluation**
workload — full-relation labeling of the 8-query mix, the oracle-style
pass of E23 — scale with workers?

The phases are timed separately because they parallelize differently:

* **build** (coordinator-side shard construction) is identical in every
  mode — it happens once per relation version;
* **ship** (first pool call: fork workers + broadcast the built shard
  payloads) is a one-off; per evaluation only the compiled query crosses
  outward and extracted label lists come back;
* **labeling** (warm, best-of-two passes) is the per-query hot path and
  the thing the workers actually parallelize — kernel *and* label
  extraction run worker-side.

Answers are asserted identical to the serial sharded backend on every
worker count (the §2d unobservability contract).  The labeling rows are
**informational**: linear ``labels_of`` extraction made the serial
8-query sweep sub-5 ms at this size, so the fixed per-query pipe round
trip (plus the bool-list return wire) can no longer be amortized —
process parallelism pays in the *build* phase now, which is where the
hard gate lives (``test_e24_parallel_ingest_build``, raw ≥ 1.5x built
on ≥ 4-core runners).  What the labeling rows still enforce is an
overhead *ceiling*: the pooled path must stay within ``10x`` of the
serial sweep, which catches pathological regressions (e.g. a backend
that re-ships shard state per query) on any machine.
"""

from __future__ import annotations

import os
import time

from repro.analysis import render_table
from repro.data import REGISTRY
from repro.data.chocolate import intro_query

SIZE = 40000
WORKER_COUNTS = (1, 2, 4)
GATE_WORKERS = 4
OVERHEAD_CEILING = 10.0
LABEL_PASSES = 2


def _label_pass(backend, workload):
    """One full-relation labeling sweep; returns (elapsed_ms, labels)."""
    t0 = time.perf_counter()
    labels = [backend.matches_many(q) for q in workload]
    return (time.perf_counter() - t0) * 1000, labels


def _measure_labeling(backend, workload):
    """Best-of-N warm labeling time plus the first pass's labels."""
    times, labels = [], None
    for _ in range(LABEL_PASSES):
        elapsed, run = _label_pass(backend, workload)
        times.append(elapsed)
        if labels is None:
            labels = run
    return min(times), labels


def test_e24_parallel_scaling(
    report, trend, benchmark, storefront_vocab, store_factory, engine_workload
):
    store = store_factory(SIZE)
    cpus = os.cpu_count() or 1

    serial = REGISTRY.create("sharded", store, storefront_vocab)
    t0 = time.perf_counter()
    serial.refresh(force=True)
    build_ms = (time.perf_counter() - t0) * 1000
    serial_ms, reference = _measure_labeling(serial, engine_workload)

    rows = [["serial", f"{build_ms:.1f}", "-", f"{serial_ms:.1f}", "1.0x"]]
    gated_speedup = None
    last_backend = None
    for workers in WORKER_COUNTS:
        backend = REGISTRY.create(
            "sharded", store, storefront_vocab, processes=workers
        )
        t0 = time.perf_counter()
        backend.refresh(force=True)
        pool_build_ms = (time.perf_counter() - t0) * 1000
        # First call forks the workers and broadcasts the shard payloads.
        t0 = time.perf_counter()
        backend.matches_many(engine_workload[0])
        ship_ms = (time.perf_counter() - t0) * 1000
        label_ms, labels = _measure_labeling(backend, engine_workload)
        assert labels == reference, (
            f"{workers}-worker labels diverge from serial"  # §2d contract
        )
        speedup = serial_ms / label_ms if label_ms else float("inf")
        # Informational speedup, hard overhead *ceiling* (module
        # docstring): a pooled sweep an order of magnitude slower than
        # serial means the parallel layer regressed pathologically
        # (e.g. shard state re-shipped per query), on any machine.
        assert label_ms <= serial_ms * OVERHEAD_CEILING, (
            f"{workers}-worker labeling took {label_ms:.1f}ms vs "
            f"{serial_ms:.1f}ms serial at {SIZE} objects — over the "
            f"{OVERHEAD_CEILING:.0f}x pool-overhead ceiling"
        )
        if workers == GATE_WORKERS:
            gated_speedup = speedup
        rows.append(
            [
                f"{workers} worker(s)",
                f"{pool_build_ms:.1f}",
                f"{ship_ms:.1f}",
                f"{label_ms:.1f}",
                f"{speedup:.1f}x",
            ]
        )
        trend(
            f"e24_parallel_{workers}w",
            median_s=label_ms / 1000,
            speedup=speedup,
        )
        if workers == max(WORKER_COUNTS):
            last_backend = backend
        else:
            backend.close()

    table = render_table(
        [
            "mode",
            "build ms",
            "fork+ship ms",
            f"label ms ({len(engine_workload)}q)",
            "speedup",
        ],
        rows,
        title=(
            f"E24 — process-parallel shard evaluation at {SIZE} boxes "
            f"(full-relation labeling of the 8-query mix, warm best-of-"
            f"{LABEL_PASSES}; answers identical to serial on every row; "
            f"speedups informational — linear labels_of made the serial "
            f"sweep too fast to amortize the pipe, the hard gate moved "
            f"to the build split below; ceiling: pooled ≤ "
            f"{OVERHEAD_CEILING:.0f}x serial — this run: {cpus} cpu)"
        ),
    )
    report("e24_parallel_scale", table)
    assert gated_speedup is not None

    # pytest-benchmark on the warm pooled labeling path, then clean up.
    try:
        benchmark(last_backend.matches_many, intro_query())
    finally:
        last_backend.close()


BUILD_PASSES = 2
BUILD_SPEEDUP_FLOOR = 1.5
BUILD_SIZE = 40000


def _continuous_store(count, seed):
    """A store whose abstraction is genuinely expensive: four continuous
    attributes under eight numeric propositions, so every row projects
    to a distinct memo key and ``Vocabulary.mask_sets``'s distinct-row
    memo never hits — the regime worker-side (parallel) ingest exists
    for.  The storefront's four booleans are the opposite extreme: ~16
    distinct projections make the coordinator build nearly free, so
    there is nothing left to parallelize.  A threshold and a ``Between``
    band on the same attribute are independent (all four truth
    combinations have witnesses), so each attribute carries two
    propositions — abstraction cost without extra wire cost.
    """
    import random

    from repro.data.propositions import (
        Between,
        GreaterThan,
        LessThan,
        Vocabulary,
    )
    from repro.data.relation import NestedRelation
    from repro.data.schema import Attribute, FlatSchema, NestedSchema

    flat = FlatSchema(
        name="lots",
        attributes=(
            Attribute.real("price"),
            Attribute.real("weightG"),
            Attribute.real("cocoaPct"),
            Attribute.real("rating"),
        ),
    )
    vocab = Vocabulary(
        flat,
        [
            LessThan("price", 6.0),
            Between("price", 3.0, 9.0),
            GreaterThan("weightG", 55.0),
            Between("weightG", 35.0, 75.0),
            GreaterThan("cocoaPct", 0.65),
            Between("cocoaPct", 0.45, 0.85),
            LessThan("rating", 3.0),
            Between("rating", 2.0, 4.0),
        ],
    )
    relation = NestedRelation(NestedSchema(name="lot_objects", embedded=flat))
    rng = random.Random(seed)
    uniform = rng.uniform
    for i in range(count):
        relation.add_object(
            f"lot{i}",
            rows=[
                {
                    "price": uniform(1.0, 12.0),
                    "weightG": uniform(20.0, 90.0),
                    "cocoaPct": uniform(0.3, 1.0),
                    "rating": uniform(1.0, 5.0),
                }
                for _ in range(rng.randrange(3, 7))
            ],
        )
    return relation, vocab


def _time_to_first_answer(store, vocab, ingest, query):
    """Cold build with a fresh pool: refresh (coordinator-side work) plus
    the first evaluation (fork + ship + worker-side work), in ms."""
    backend = REGISTRY.create(
        "sharded", store, vocab, processes=GATE_WORKERS, ingest=ingest
    )
    try:
        t0 = time.perf_counter()
        backend.refresh(force=True)
        build_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        bits = backend.matching_bits(query)
        ship_ms = (time.perf_counter() - t0) * 1000
    finally:
        backend.close()
    return build_ms, ship_ms, bits


def test_e24_parallel_ingest_build(report, trend):
    """The build-phase split of the two ingest modes (DESIGN.md §2d):

    * ``ingest="built"`` — the coordinator abstracts every object's rows
      single-core, then ships the built shard payloads;
    * ``ingest="raw"`` (the pool default) — the coordinator ships
      projected raw shard rows and the vocabulary, and the workers run
      the abstraction on all cores.

    Measured on the continuous-attribute store (see
    :func:`_continuous_store`), cold to first answer with a fresh pool
    each pass (fork cost lands on both modes equally), best-of-
    ``BUILD_PASSES``; answers are asserted identical.  The gate —
    parallel ingest ≥ 1.5x the coordinator build — applies where the
    machine can deliver it (``os.cpu_count() >= 4``).
    """
    from repro.core.query import QhornQuery

    store, vocab = _continuous_store(BUILD_SIZE, seed=2400)
    cpus = os.cpu_count() or 1
    query = QhornQuery.build(
        vocab.n, universals=[((0,), 2), ((1, 3), 6)], existentials=[(4, 7)]
    ).compile()
    reference = REGISTRY.create("sharded", store, vocab).matching_bits(query)

    totals: dict[str, float] = {}
    rows = []
    for ingest in ("built", "raw"):
        best = None
        for _ in range(BUILD_PASSES):
            build_ms, ship_ms, bits = _time_to_first_answer(
                store, vocab, ingest, query
            )
            assert bits == reference, f"{ingest}-ingest answers diverge"
            if best is None or build_ms + ship_ms < sum(best):
                best = (build_ms, ship_ms)
        totals[ingest] = sum(best)
        rows.append(
            [
                f"{ingest} ingest",
                f"{best[0]:.1f}",
                f"{best[1]:.1f}",
                f"{totals[ingest]:.1f}",
            ]
        )

    speedup = totals["built"] / totals["raw"] if totals["raw"] else 0.0
    gate = "-"
    if cpus >= GATE_WORKERS:
        gate = "yes"
        assert speedup >= BUILD_SPEEDUP_FLOOR, (
            f"raw (worker-side) ingest only {speedup:.1f}x the coordinator "
            f"build at {BUILD_SIZE} objects (floor {BUILD_SPEEDUP_FLOOR}x)"
        )
    else:
        gate = f"skipped ({cpus} cpu)"
    rows.append(["raw vs built", "-", "-", f"{speedup:.1f}x ({gate})"])
    trend("e24_parallel_build", speedup=speedup)

    table = render_table(
        ["mode", "coordinator ms", "fork+ship+first answer ms", "total ms"],
        rows,
        title=(
            f"E24 — ingest-mode build split at {BUILD_SIZE} objects with "
            f"continuous attributes (memo-defeating abstraction), "
            f"{GATE_WORKERS} workers (cold to first answer, best-of-"
            f"{BUILD_PASSES}; gate: raw ≥ {BUILD_SPEEDUP_FLOOR}x built "
            f"when the machine has ≥ {GATE_WORKERS} cores — this run: "
            f"{cpus})"
        ),
    )
    report("e24_parallel_ingest", table)
