"""Unit and failure-path tests for :class:`ShardWorkerPool`.

The satellite contract for the pool's failure modes (ISSUE 4):

* a worker crash mid-batch raises :class:`WorkerCrashError` cleanly (no
  hang, no garbage answers) and breaks the pool;
* ``close()`` twice is a no-op, as is closing an already-crashed pool;
* evaluating against a retired state token raises
  :class:`StaleShardStateError` (the worker-side freshness safety net),
  and the pool stays usable afterwards.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.tuples import Question
from repro.data.backends import REGISTRY
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)
from repro.oracle import QueryOracle
from repro.parallel import (
    ShardWorkerPool,
    StaleShardStateError,
    WorkerCrashError,
    WorkerTaskError,
    resolve_processes,
    shard_payloads,
)


@pytest.fixture(scope="module")
def vocab():
    return storefront_vocabulary()


@pytest.fixture(scope="module")
def store(vocab):
    return random_store(600, random.Random(2400))


@pytest.fixture(scope="module")
def built_shards(store, vocab):
    backend = REGISTRY.create("sharded", store, vocab, shard_size=100)
    backend.refresh(force=True)
    return backend._shards


@pytest.fixture()
def pool():
    with ShardWorkerPool(2) as p:
        yield p


def _questions(n_questions: int) -> list[Question]:
    rng = random.Random(77)
    return [
        Question.of(4, [rng.randrange(16) for _ in range(rng.randint(1, 4))])
        for _ in range(n_questions)
    ]


class TestLifecycle:
    def test_worker_count_and_repr(self, pool):
        assert pool.processes == 2
        assert not pool.closed
        assert "2 workers" in repr(pool)

    def test_zero_means_cpu_count(self):
        assert resolve_processes(0) == (os.cpu_count() or 1)
        assert resolve_processes(3) == 3
        with pytest.raises(ValueError):
            resolve_processes(-1)

    def test_ping_round_trips_every_worker(self, pool):
        assert pool.ping("hello") == ["hello", "hello"]

    def test_double_close_is_noop(self):
        pool = ShardWorkerPool(2)
        pool.close()
        assert pool.closed
        pool.close()  # second close: no error, no effect
        assert pool.closed

    def test_closed_pool_rejects_requests(self):
        pool = ShardWorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.ping()
        with pytest.raises(RuntimeError, match="closed"):
            pool.load_shards([])

    def test_context_manager_closes(self):
        with ShardWorkerPool(1) as pool:
            assert not pool.closed
        assert pool.closed


class TestShardEvaluation:
    def test_bits_match_serial_kernel(self, pool, built_shards, store, vocab):
        serial = REGISTRY.create("sharded", store, vocab, shard_size=100)
        token = pool.load_shards(shard_payloads(built_shards))
        compiled = intro_query().compile()
        bits = 0
        for offset, shard_bits in pool.evaluate_bits(token, compiled):
            bits |= shard_bits << offset
        assert bits == serial.matching_bits(intro_query())

    def test_labels_match_serial_extraction(
        self, pool, built_shards, store, vocab
    ):
        serial = REGISTRY.create("sharded", store, vocab, shard_size=100)
        token = pool.load_shards(shard_payloads(built_shards))
        labels: list[bool] = []
        for _offset, shard_labels in pool.evaluate_labels(
            token, intro_query().compile()
        ):
            labels.extend(shard_labels)
        assert labels == serial.matches_many(intro_query())

    def test_replies_arrive_in_shard_order(self, pool, built_shards):
        token = pool.load_shards(shard_payloads(built_shards))
        pairs = pool.evaluate_bits(token, intro_query().compile())
        assert [offset for offset, _ in pairs] == sorted(
            s.offset for s in built_shards
        )

    def test_empty_load_evaluates_to_nothing(self, pool):
        token = pool.load_shards([])
        assert pool.evaluate_bits(token, intro_query().compile()) == []


class TestStaleState:
    def test_retired_token_raises(self, pool, built_shards):
        first = pool.load_shards(shard_payloads(built_shards))
        second = pool.load_shards(shard_payloads(built_shards[:2]))
        with pytest.raises(StaleShardStateError) as excinfo:
            pool.evaluate_bits(first, intro_query().compile())
        assert excinfo.value.expected == first
        assert excinfo.value.held == second
        assert "refresh" in str(excinfo.value)

    def test_pool_survives_stale_error(self, pool, built_shards):
        """A stale reply must not desynchronize any worker pipe."""
        token = pool.load_shards(shard_payloads(built_shards))
        with pytest.raises(StaleShardStateError):
            pool.evaluate_bits(token + 1000, intro_query().compile())
        assert pool.evaluate_bits(token, intro_query().compile())
        assert pool.ping(42) == [42, 42]


class TestOracleDispatch:
    def test_chunk_answers_in_submission_order(self, pool):
        oracle = QueryOracle(intro_query())
        questions = _questions(100)
        pool.set_oracle(5, oracle)
        chunks = [questions[i : i + 9] for i in range(0, 100, 9)]
        answers = [a for chunk in pool.ask_chunks(5, chunks) for a in chunk]
        assert answers == [oracle.ask(q) for q in questions]

    def test_more_chunks_than_workers(self, pool):
        oracle = QueryOracle(intro_query())
        questions = _questions(30)
        pool.set_oracle(6, oracle)
        chunks = [[q] for q in questions]  # 30 waves of singleton chunks
        answers = [a for chunk in pool.ask_chunks(6, chunks) for a in chunk]
        assert answers == [oracle.ask(q) for q in questions]

    def test_unknown_oracle_token_raises_cleanly(self, pool):
        with pytest.raises(WorkerTaskError, match="no oracle shipped"):
            pool.ask_chunks(999, [_questions(3)])
        assert pool.ping() == [None, None]  # pipes still synchronized

    def test_dropped_oracle_is_gone(self, pool):
        pool.set_oracle(7, QueryOracle(intro_query()))
        pool.drop_oracle(7)
        with pytest.raises(WorkerTaskError, match="no oracle shipped"):
            pool.ask_chunks(7, [_questions(2)])

    def test_worker_error_carries_remote_traceback(self, pool):
        pool.set_oracle(8, QueryOracle(intro_query()))
        wrong_width = [Question.of(9, [0])]
        with pytest.raises(WorkerTaskError) as excinfo:
            pool.ask_chunks(8, [wrong_width])
        assert excinfo.value.type_name == "ValueError"
        assert "Traceback" in excinfo.value.remote_traceback


class TestWorkerCrash:
    def test_crash_mid_batch_raises_cleanly(self, built_shards):
        with ShardWorkerPool(2) as pool:
            token = pool.load_shards(shard_payloads(built_shards))
            pool._send(0, ("abort",))  # worker 0 dies without replying
            with pytest.raises(WorkerCrashError, match="died mid-request"):
                pool.evaluate_bits(token, intro_query().compile())
            assert pool.closed  # a crash breaks the whole pool

    def test_crash_during_oracle_dispatch(self):
        with ShardWorkerPool(2) as pool:
            pool.set_oracle(1, QueryOracle(intro_query()))
            pool._send(1, ("abort",))
            chunks = [_questions(4) for _ in range(6)]
            with pytest.raises(WorkerCrashError):
                pool.ask_chunks(1, chunks)
            assert pool.closed

    def test_close_after_crash_is_noop(self):
        pool = ShardWorkerPool(1)
        pool._send(0, ("abort",))
        with pytest.raises(WorkerCrashError):
            pool.ping()
        pool.close()  # already closed by the crash: no error
        assert pool.closed
