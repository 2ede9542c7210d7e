"""E26 — the tabled bitmask kernel vs the ``evaluate_inverted`` scan.

The measurement the superset-union tables of
:class:`~repro.data.index.BitsetKernel` (DESIGN.md §2, §2g) exist to
answer: at 100 000 objects, how much faster is warm query evaluation
when each quantifier reads one precomputed table row instead of
scanning every distinct mask's bitset?  Both sides run over the same
inverted index of the default ``bitmask`` backend: the scan is
:func:`~repro.data.index.evaluate_inverted` (the kernel's fallback for
data whose tables are refused), the tabled side is the backend's warm
``matching_bits``.

Two workloads, because the answer depends on the mask-space density:

* **storefront** (n=4, ≤16 distinct masks) — the repo's default domain.
  With so few masks the scan touches only a handful of bitsets per
  quantifier, so the tables record only a modest edge; the row is
  informational.
* **wide** (n=10, ~1024 distinct masks) — the regime the tables are
  for.  The scan re-reads all ``D`` bitset rows per quantifier; the
  tabled kernel touches one precomputed row instead, so the gap grows
  with ``D``.  This row is the gate: CI enforces ``SPEEDUP_FLOOR`` (the
  structural floor is machine-independent — both sides are
  single-core and bandwidth-bound).

Answers are asserted bit-identical between the two sides on every query
of both workloads (the full cross-backend identity lives in
``tests/properties/test_prop_backends.py``).
"""

from __future__ import annotations

import random
import time

from repro.analysis import render_table
from repro.data import (
    BoolIs,
    NestedRelation,
    Vocabulary,
)
from repro.data.backends import create
from repro.data.index import evaluate_inverted
from repro.data.schema import Attribute, FlatSchema, NestedSchema
from repro.core.query import QhornQuery

SIZE = 100_000
WIDE_N = 10
SPEEDUP_FLOOR = 2.0
PASSES = 3


def _wide_relation(n: int, count: int, seed: int):
    """A relation dense in mask space: ``count`` objects whose rows are
    random Boolean tuples over ``n`` propositions (~``2^n`` distinct
    masks), next to the storefront's ~16."""
    flat = FlatSchema(
        name="wide",
        attributes=tuple(Attribute.boolean(f"b{i + 1}") for i in range(n)),
    )
    vocab = Vocabulary(flat, [BoolIs(f"b{i + 1}") for i in range(n)])
    relation = NestedRelation(NestedSchema(name="wide_objects", embedded=flat))
    rng = random.Random(seed)
    for i in range(count):
        relation.add_object(
            f"w{i}",
            rows=[
                {
                    f"b{j + 1}": bool(rng.getrandbits(1))
                    for j in range(n)
                }
                for _ in range(rng.randrange(1, 4))
            ],
        )
    return relation, vocab


def _wide_workload(n: int, seed: int) -> list[QhornQuery]:
    """Seeded mixed qhorn queries over the wide vocabulary."""
    rng = random.Random(seed)
    out: list[QhornQuery] = []
    for _ in range(8):
        universals = []
        for _ in range(rng.randrange(1, 3)):
            head = rng.randrange(n)
            body = tuple(
                v
                for v in rng.sample(range(n), rng.randrange(0, 3))
                if v != head
            )
            universals.append((body, head))
        existentials = [
            tuple(rng.sample(range(n), rng.randrange(1, 3)))
            for _ in range(rng.randrange(0, 2))
        ]
        out.append(
            QhornQuery.build(
                n, universals=universals, existentials=existentials
            )
        )
    return out


def _measure(compiled, evaluate):
    """Best-of-``PASSES`` warm wall time for one full workload sweep."""
    times, answers = [], None
    for _ in range(PASSES):
        t0 = time.perf_counter()
        run = [evaluate(c) for c in compiled]
        times.append((time.perf_counter() - t0) * 1000)
        if answers is None:
            answers = run
    return min(times), answers


def _kernel_row(label, relation, vocab, workload, gated):
    """Warm scan vs tabled-kernel sweep on one workload; returns the
    table row, the measured speedup and the warm backend."""
    compiled = [q.compile() for q in workload]
    backend = create("bitmask", relation, vocab)
    index = backend.index
    inverted, all_bits = index._kernel.inverted, index._kernel.all_bits
    backend.matching_bits(compiled[0])  # build the zeta tables

    scan_ms, scan_answers = _measure(
        compiled, lambda c: evaluate_inverted(c, inverted, all_bits)
    )
    tabled_ms, tabled_answers = _measure(compiled, backend.matching_bits)
    assert tabled_answers == scan_answers, (
        f"{label}: tabled kernel answers diverge from evaluate_inverted"
    )
    speedup = scan_ms / tabled_ms if tabled_ms else float("inf")
    row = [
        label,
        str(index.distinct_masks),
        f"{scan_ms:.2f}",
        f"{tabled_ms:.2f}",
        f"{speedup:.1f}x",
        "yes" if gated else "-",
    ]
    return row, speedup, backend


def test_e26_numpy_kernel(
    report, trend, benchmark, storefront_vocab, store_factory, engine_workload
):
    store_row, store_speedup, _ = _kernel_row(
        "storefront (n=4)",
        store_factory(SIZE),
        storefront_vocab,
        engine_workload,
        gated=False,
    )
    wide_relation, wide_vocab = _wide_relation(WIDE_N, SIZE, seed=1303)
    wide_workload = _wide_workload(WIDE_N, seed=2026)
    wide_row, wide_speedup, wide_backend = _kernel_row(
        f"wide (n={WIDE_N})",
        wide_relation,
        wide_vocab,
        wide_workload,
        gated=True,
    )
    assert wide_speedup >= SPEEDUP_FLOOR, (
        f"tabled kernel only {wide_speedup:.1f}x the scan on the "
        f"wide workload at {SIZE} objects (floor {SPEEDUP_FLOOR}x)"
    )
    trend("e26_numpy_kernel", speedup=wide_speedup)
    trend("e26_numpy_kernel_storefront", speedup=store_speedup)

    table = render_table(
        ["workload", "distinct masks", "scan ms", "tabled ms", "speedup", "gated"],
        [store_row, wide_row],
        title=(
            f"E26 — tabled bitmask kernel vs the evaluate_inverted scan "
            f"at {SIZE} objects (8-query warm sweep, best-of-{PASSES}; "
            f"answers bit-identical on every query; gate: wide workload "
            f"≥ {SPEEDUP_FLOOR:.0f}x)"
        ),
    )
    report("e26_numpy_kernel", table)

    # pytest-benchmark median on the gated warm path.
    compiled = wide_workload[0].compile()
    benchmark(wide_backend.matching_bits, compiled)
