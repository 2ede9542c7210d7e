"""E23 — evaluation backends at scale: single bitmask index vs sharded
blocks vs the pooled file-backed dbapi backend (SQL batch execution).

Not a paper experiment, but the measurement the `EvaluationBackend` seam
(DESIGN.md §2c) exists to answer: which backend serves an oracle-style
workload — build the evaluation structure, then label **every object of
the relation** for each query of the 8-query mixed workload — fastest as
the relation grows?

The single :class:`RelationIndex` historically paid two super-linear
costs at scale: building accumulates ``1 << position`` into
relation-width big-int bitsets (`O(W²)`-flavoured), and — before the
shared :func:`~repro.data.index.labels_of` helper — a full labeling pass
extracted ``W`` bits with ``O(W)`` shifts each.  Label extraction is
linear everywhere now, so only the build accumulation separates the
layouts and the sharded edge narrowed from the pre-linear-extraction
2.8-3.3x to a noisy 1.2-1.9x band whose low edge touches parity.  The
sharded backend bounds every bitset to ``shard_size`` bits, making the
build linear too.  The ``dbapi`` row (DESIGN.md §2i) runs the workload
in SQLite round trips on a *file-backed* URI through the bounded
connection pool — informational (trend entry ``e23_dbapi``), since disk
and pool overhead are machine-dependent.  Answers are asserted identical
across all three on every tier (the differential contract).

Acceptance gate: on the largest tier (≥ 10× the seed benchmark size)
the sharded backend's end-to-end throughput (build + labeling) must
stay within the parity floor below of the single index's — a guard
against a sharded-layer regression, not a speedup claim.  Sharding's
remaining structural win is bounded bitset width.
"""

from __future__ import annotations

import time

from repro.analysis import render_table
from repro.data.backends import create
from repro.data.chocolate import intro_query

SEED_STORE_BOXES = 400  # the seed E21 benchmark store size
SIZES = (4000, 20000, 40000)
SHARDED_SPEEDUP_FLOOR = 0.9  # parity guard; measured band is 1.2-1.9x

BACKENDS = (
    ("bitmask", {}),
    ("sharded", {}),  # DEFAULT_SHARD_SIZE blocks
    ("dbapi", {}),  # pooled + file-backed; uri= filled in per run
)


def _measure(backend, workload):
    """(build_ms, label_ms, labels): cold build + full-relation labeling.

    Both phases are taken best-of-two — ``refresh(force=True)`` rebuilds
    from scratch, and with linear label extraction the totals are
    build-dominated, so a one-off scheduler hiccup in either phase could
    otherwise flip the gate.  Answers come from the first labeling pass.
    """
    builds = []
    for _ in range(2):
        t0 = time.perf_counter()
        backend.refresh(force=True)
        builds.append((time.perf_counter() - t0) * 1000)
    build_ms = min(builds)
    passes = []
    labels = None
    for attempt in range(2):
        t0 = time.perf_counter()
        run = [backend.matches_many(q) for q in workload]
        passes.append((time.perf_counter() - t0) * 1000)
        if labels is None:
            labels = run
    return build_ms, min(passes), labels


def test_e23_backend_scaling(
    report,
    trend,
    benchmark,
    storefront_vocab,
    store_factory,
    engine_workload,
    tmp_path,
):
    rows = []
    sharded_backend = None
    for size in SIZES:
        store = store_factory(size)
        timings = {}
        reference_labels = None
        for name, options in BACKENDS:
            if name == "dbapi":
                # The pooled external-database row (DESIGN.md §2i) runs
                # against a file-backed SQLite URI, not shared memory —
                # the deployment-shaped configuration.
                options = dict(
                    options, uri=f"file:{tmp_path}/e23-{size}.sqlite"
                )
            backend = create(name, store, storefront_vocab, **options)
            build_ms, label_ms, labels = _measure(backend, engine_workload)
            if reference_labels is None:
                reference_labels = labels
            # Identical answers on identical state, whatever the backend.
            assert labels == reference_labels, name
            timings[name] = (build_ms, label_ms)
            if name == "sharded":
                sharded_backend = backend
            elif name == "dbapi":
                backend.close()

        single_total = sum(timings["bitmask"])
        sharded_total = sum(timings["sharded"])
        sharded_speedup = single_total / sharded_total
        # The gate applies to the largest tier (well beyond 10x the seed
        # benchmark size); smaller tiers chart the crossover region.
        if size == max(SIZES):
            trend(
                "e23_backend_scale_sharded",
                median_s=sharded_total / 1000,
                speedup=sharded_speedup,
            )
            # Informational: the pooled file-backed dbapi row, relative
            # to the single index (required:false in the baseline band —
            # disk + pool overhead is machine-dependent, no gate).
            dbapi_total = sum(timings["dbapi"])
            trend(
                "e23_dbapi",
                median_s=dbapi_total / 1000,
                speedup=single_total / dbapi_total,
            )
            assert size >= 10 * SEED_STORE_BOXES
            assert sharded_speedup >= SHARDED_SPEEDUP_FLOOR, (
                f"sharded backend only {sharded_speedup:.1f}x faster than the "
                f"single index at {size} boxes "
                f"(floor {SHARDED_SPEEDUP_FLOOR}x)"
            )
        answers = sum(reference_labels[0])
        rows.append(
            [
                size,
                answers,
                f"{timings['bitmask'][0]:.1f}",
                f"{timings['bitmask'][1]:.1f}",
                f"{timings['sharded'][0]:.1f}",
                f"{timings['sharded'][1]:.1f}",
                f"{timings['dbapi'][0]:.1f}",
                f"{timings['dbapi'][1]:.1f}",
                f"{sharded_speedup:.1f}x",
            ]
        )
    table = render_table(
        [
            "boxes",
            "answers(q0)",
            "single build ms",
            "single label ms",
            "sharded build ms",
            "sharded label ms",
            "dbapi build ms",
            "dbapi label ms",
            "sharded speedup",
        ],
        rows,
        title=(
            "E23 — backend throughput on the oracle workload (cold build + "
            "full-relation labeling of the 8-query mix; answers identical "
            "across backends; speedup = single-index total / sharded total)"
        ),
    )
    report("e23_backend_scale", table)

    # pytest-benchmark on the warm sharded labeling path, largest store.
    benchmark(sharded_backend.matches_many, intro_query())
