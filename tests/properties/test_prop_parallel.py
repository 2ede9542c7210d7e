"""Differential properties: process-parallel evaluation is unobservable.

The parallel subsystem (DESIGN.md §2d) promises that moving work into
worker processes changes *nothing* observable:

* the sharded backend's pool mode returns exactly the serial backends'
  answers on identical relation state, for every qhorn query (shard
  striping across workers, worker-side label extraction and the
  re-ship/retry path included);
* ``ParallelOracle`` returns exactly the sequential answers for every
  batch, and the stateful wrappers stacked on top — ``CountingOracle``
  statistics, seeded ``NoisyOracle`` flips — stay **bit-identical**,
  because chunk answers are reassembled in submission order.

Layers mirror the other differential suites: hypothesis properties over
random relations/queries plus a seeded exhaustive sweep of ≥ 1000 cases
(the acceptance-criteria count, split across both halves of the
contract).  All cases share one module-scoped two-worker pool, so the
sweep exercises state displacement between cases too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.tuples import Question
from repro.data import REGISTRY
from repro.oracle import CountingOracle, NoisyOracle, ParallelOracle, QueryOracle
from repro.parallel import ShardWorkerPool
from tests.properties.test_prop_engine import (
    bool_vocabulary,
    engine_cases,
    random_query,
    relation_from_masks,
)

SEEDED_BACKEND_CASES = 600
SEEDED_ORACLE_CASES = 600


@pytest.fixture(scope="module")
def pool():
    with ShardWorkerPool(2) as p:
        yield p


def _random_questions(rng: random.Random, n: int) -> list[Question]:
    count = rng.randint(1, 40)
    return [
        Question.of(
            n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@given(engine_cases())
@settings(max_examples=40, deadline=None)
def test_pool_backend_agrees_with_serial(pool, case):
    n, mask_sets, seed = case
    rng = random.Random(seed)
    query = random_query(rng, n)
    relation = relation_from_masks(n, mask_sets)
    vocab = bool_vocabulary(n)
    serial = REGISTRY.create("bitmask", relation, vocab)
    parallel = REGISTRY.create(
        "sharded",
        relation,
        vocab,
        shard_size=rng.randint(1, 3),
        pool=pool,
    )
    assert parallel.matching_bits(query) == serial.matching_bits(query)
    assert parallel.matches_many(query) == serial.matches_many(query)


@given(engine_cases())
@settings(max_examples=25, deadline=None)
def test_parallel_oracle_answers_sequentially(pool, case):
    n, _mask_sets, seed = case
    rng = random.Random(seed)
    target = random_query(rng, n)
    questions = _random_questions(rng, n)
    sequential = [QueryOracle(target).ask(q) for q in questions]
    oracle = ParallelOracle(
        QueryOracle(target), pool=pool, chunk_size=rng.randint(1, 5)
    )
    assert oracle.ask_many(questions) == sequential
    oracle.close()


# ----------------------------------------------------------------------
# Seeded exhaustive sweeps (the acceptance-criteria ≥ 1000 cases)
# ----------------------------------------------------------------------


def test_seeded_backend_sweep(pool):
    """600 seeded (relation, query) cases: pool answers == serial answers."""
    agreements = 0
    for case in range(SEEDED_BACKEND_CASES):
        rng = random.Random(24_000 + case)
        n = rng.randint(1, 5)
        vocab = bool_vocabulary(n)
        mask_sets = [
            frozenset(
                rng.randrange(1 << n) for _ in range(rng.randint(0, 4))
            )
            for _ in range(rng.randint(0, 8))
        ]
        relation = relation_from_masks(n, mask_sets)
        query = random_query(rng, n)
        serial = REGISTRY.create("bitmask", relation, vocab)
        parallel = REGISTRY.create(
            "sharded",
            relation,
            vocab,
            shard_size=rng.randint(1, 4),
            pool=pool,
        )
        assert parallel.matches_many(query) == serial.matches_many(query), (
            f"case {case}: pool labels diverge from serial"
        )
        assert parallel.matching_bits(query) == serial.matching_bits(query), (
            f"case {case}: pool bits diverge from serial"
        )
        agreements += 1
    assert agreements == SEEDED_BACKEND_CASES


def test_seeded_oracle_sweep(pool):
    """600 seeded question batches: answers, counting statistics and
    seeded noise flips are bit-identical with and without dispatch."""
    agreements = 0
    for case in range(SEEDED_ORACLE_CASES):
        rng = random.Random(25_000 + case)
        n = rng.randint(1, 5)
        target = random_query(rng, n)
        questions = _random_questions(rng, n)
        noise_seed = rng.randrange(1 << 30)

        sequential = CountingOracle(
            NoisyOracle(QueryOracle(target), 0.25, random.Random(noise_seed))
        )
        sequential_answers = [sequential.ask(q) for q in questions]

        inner = ParallelOracle(
            QueryOracle(target), pool=pool, chunk_size=rng.randint(1, 5)
        )
        parallel = CountingOracle(
            NoisyOracle(inner, 0.25, random.Random(noise_seed))
        )
        parallel_answers = parallel.ask_many(questions)
        inner.close()

        assert parallel_answers == sequential_answers, (
            f"case {case}: noisy answers diverge"
        )
        assert parallel.inner.given == sequential.inner.given, (
            f"case {case}: flip pattern diverges"
        )
        assert parallel.inner.truth == sequential.inner.truth, (
            f"case {case}: true labels diverge"
        )
        stats, reference = parallel.stats, sequential.stats
        assert (
            stats.questions,
            stats.tuples,
            stats.answers,
            stats.non_answers,
            stats.tuples_histogram,
        ) == (
            reference.questions,
            reference.tuples,
            reference.answers,
            reference.non_answers,
            reference.tuples_histogram,
        ), f"case {case}: counting statistics diverge"
        agreements += 1
    assert agreements == SEEDED_ORACLE_CASES
