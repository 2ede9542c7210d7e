"""E22 — the oracle side at scale: per-question reference evaluation vs
batched ``ask_many`` on a ground-truth
:class:`~repro.oracle.base.QueryOracle`.

Not a paper experiment, but the measurement behind the round protocol
(DESIGN.md §2b): a learner-shaped question stream — many questions,
heavy repetition across phases and restarts — answered one question at a
time versus as mask-native batches.  The sequential leg runs the
reference evaluator ``QhornQuery.evaluate`` per question (re-deriving
expression masks every time); ``ask_many`` compiles the hidden target
once and evaluates each *distinct* question's mask set exactly once,
reusing answers for duplicates.  Responses are asserted identical,
always.

Workloads draw from a bounded pool of distinct questions (pool = size/20,
the repetition a caching/replaying session exhibits) plus one
all-distinct control row showing the compile-only speedup without any
dedup leverage.  The acceptance gate: batched answering is ≥ 5× faster
than per-question evaluation on every repetitive workload of ≥ 1000
questions.  Each leg is timed as the best of :data:`REPEATS` runs, the
two legs alternating, so one scheduling stall on a busy host cannot
decide the gate.
"""

from __future__ import annotations

import random
import time

from repro.analysis import render_table
from repro.core import tuples as bt
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.oracle import QueryOracle

N_VARS = 16
SIZES = (1000, 4000, 10000)
SPEEDUP_FLOOR = 5.0
GATE_MIN_QUESTIONS = 1000
#: Alternating runs per leg; each leg keeps its fastest.
REPEATS = 5


def _target() -> QhornQuery:
    """A mixed qhorn target (k=10): shared-body universals, a bodyless
    head, and overlapping conjunctions — the expression mix that makes
    sequential re-evaluation expensive."""
    return QhornQuery.build(
        N_VARS,
        universals=[
            ((0, 1), 2),
            ((0, 1), 3),
            ((4,), 5),
            ((4, 6), 7),
            ((), 8),
            ((9, 10), 11),
        ],
        existentials=[(6, 7), (9, 10, 12), (12, 13), (13, 14, 15)],
    )


def _question_pool(rng: random.Random, count: int) -> list[Question]:
    """Distinct learner-shaped questions: 3–10 mostly-true tuples.

    Learner questions are the all-true tuple with a handful of variables
    falsified (head tests, dependence probes, lattice roots), so the
    evaluator walks most expressions before deciding — unlike uniformly
    random tuples, which violate some universal almost immediately.
    """
    top = bt.all_true(N_VARS)
    pool: set[Question] = set()
    while len(pool) < count:
        tuples = [
            bt.with_false(top, rng.sample(range(N_VARS), rng.randint(0, 3)))
            for _ in range(rng.randint(3, 10))
        ]
        pool.add(Question.of(N_VARS, tuples))
    return sorted(pool, key=lambda q: sorted(q.tuples))


def _workload(
    rng: random.Random, size: int, pool_size: int
) -> list[Question]:
    pool = _question_pool(rng, pool_size)
    if pool_size >= size:  # all-distinct control: every question unique
        rng.shuffle(pool)
        return pool[:size]
    return [rng.choice(pool) for _ in range(size)]


def _timed(fn):
    """``fn()``'s result and its wall time in ms."""
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * 1000


def test_e22_oracle_batching(report, trend, benchmark):
    target = _target()
    rows = []
    workloads = [
        (size, max(50, size // 20)) for size in SIZES
    ] + [(SIZES[-1], SIZES[-1])]  # all-distinct control row
    largest_batchable = None
    for size, pool_size in workloads:
        questions = _workload(random.Random(2200 + size), size, pool_size)
        distinct = len(set(questions))

        sequential_ms = batched_ms = float("inf")
        for _ in range(REPEATS):
            sequential, ms = _timed(
                lambda: [target.evaluate(q) for q in questions]
            )
            sequential_ms = min(sequential_ms, ms)
            batched, ms = _timed(lambda: QueryOracle(target).ask_many(questions))
            batched_ms = min(batched_ms, ms)
            assert batched == sequential  # identical responses, always

        speedup = (
            sequential_ms / batched_ms if batched_ms else float("inf")
        )
        repetitive = distinct < size
        if repetitive and size >= GATE_MIN_QUESTIONS:
            assert speedup >= SPEEDUP_FLOOR, (
                f"ask_many only {speedup:.1f}x faster than sequential "
                "evaluate "
                f"on {size} questions / {distinct} distinct "
                f"(floor {SPEEDUP_FLOOR}x)"
            )
        if repetitive:
            largest_batchable = questions
            if size == max(SIZES):
                trend(
                    "e22_oracle_batching",
                    median_s=batched_ms / 1000,
                    speedup=speedup,
                )
        rows.append(
            [
                size,
                distinct,
                f"{sequential_ms:.2f}",
                f"{batched_ms:.2f}",
                f"{speedup:.0f}x",
                "yes" if repetitive and size >= GATE_MIN_QUESTIONS else "-",
            ]
        )
    table = render_table(
        [
            "questions",
            "distinct",
            "sequential evaluate ms",
            "ask_many ms",
            "speedup",
            "gated",
        ],
        rows,
        title=(
            "E22 — membership-question workloads: sequential QhornQuery"
            ".evaluate vs mask-native ask_many (one compile + one evaluation "
            "per distinct question; responses always identical; gate: "
            f"≥{SPEEDUP_FLOOR:.0f}x on repetitive workloads "
            f"≥{GATE_MIN_QUESTIONS} questions)"
        ),
    )
    report("e22_oracle_batching", table)

    # pytest-benchmark on the batched path over the largest workload.
    benchmark(QueryOracle(target).ask_many, largest_batchable)
