"""The sharded backend's worker-pool mode (DESIGN.md §2d).

Covers the integration the pool exists for: ``processes=`` /
``backend_options={"processes": N}`` evaluation agreeing with the
serial backends, the relation-version invalidation broadcast, shared
caller-owned pools with automatic re-ship on displacement, and the
lifecycle contract (close/context manager, crash recovery).
"""

from __future__ import annotations

import random

import pytest

from repro.data import QueryEngine
from repro.data.backends import REGISTRY
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)
from repro.data.relation import NestedObject
from repro.parallel import ShardWorkerPool, WorkerCrashError


@pytest.fixture(scope="module")
def vocab():
    return storefront_vocabulary()


@pytest.fixture()
def store(vocab):
    return random_store(400, random.Random(2401))


@pytest.fixture()
def reference(store, vocab):
    return REGISTRY.create("bitmask", store, vocab)


def _clone_row(store):
    return dict(store.objects[0].rows[0])


class TestPoolEvaluation:
    def test_agrees_with_reference(self, store, vocab, reference):
        with REGISTRY.create(
            "sharded", store, vocab, shard_size=64, processes=2
        ) as backend:
            query = intro_query()
            assert backend.matching_bits(query) == reference.matching_bits(query)
            assert [o.key for o in backend.execute(query)] == [
                o.key for o in reference.execute(query)
            ]
            assert backend.matches_many(query) == reference.matches_many(query)

    def test_explicit_objects_and_foreign_fallback(self, store, vocab):
        with REGISTRY.create(
            "sharded", store, vocab, shard_size=64, processes=2
        ) as backend:
            serial = REGISTRY.create("sharded", store, vocab, shard_size=64)
            foreign = NestedObject(key="foreign", rows=[_clone_row(store)])
            objects = [store.objects[3], foreign, store.objects[0]]
            query = intro_query()
            assert backend.matches_many(query, objects) == serial.matches_many(
                query, objects
            )

    def test_engine_backend_options_thread_through(self, store, vocab):
        engine = QueryEngine(
            store,
            vocab,
            backend="sharded",
            backend_options={"processes": 2, "shard_size": 64},
        )
        try:
            assert engine.execute_batch(intro_query()) == engine.execute(
                intro_query()
            )
            assert "process pool" in engine.backend.describe() or (
                "2-process" in engine.backend.describe()
            )
        finally:
            engine.backend.close()

    def test_empty_relation(self, vocab):
        from repro.data.relation import NestedRelation
        from repro.data.schema import NestedSchema

        empty = NestedRelation(NestedSchema("empty", vocab.schema))
        with REGISTRY.create(
            "sharded", empty, vocab, processes=2
        ) as backend:
            assert backend.execute(intro_query()) == []
            assert backend.matches_many(intro_query()) == []


class TestInvalidationBroadcast:
    def test_insert_reaches_workers(self, store, vocab):
        with REGISTRY.create(
            "sharded", store, vocab, shard_size=64, processes=2
        ) as backend:
            query = intro_query()
            before = backend.matches_many(query)
            assert len(before) == len(store)
            store.insert(NestedObject(key="late", rows=[_clone_row(store)]))
            after = backend.matches_many(query)
            assert len(after) == len(store)
            fresh = REGISTRY.create("bitmask", store, vocab)
            assert after == fresh.matches_many(query)

    def test_manual_refresh_reships(self, store, vocab):
        with REGISTRY.create(
            "sharded",
            store,
            vocab,
            shard_size=64,
            processes=2,
            auto_refresh=False,
        ) as backend:
            query = intro_query()
            backend.matches_many(query)
            shipped_before = backend._shipped_token
            store.insert(NestedObject(key="late", rows=[_clone_row(store)]))
            assert backend.is_stale
            assert backend.refresh() is True
            after = backend.matches_many(query)
            assert backend._shipped_token != shipped_before
            assert after == REGISTRY.create(
                "bitmask", store, vocab
            ).matches_many(query)


class TestSharedPool:
    def test_two_backends_displace_and_reship(self, vocab):
        store_a = random_store(300, random.Random(11))
        store_b = random_store(200, random.Random(12))
        query = intro_query()
        expected_a = REGISTRY.create("bitmask", store_a, vocab).matches_many(query)
        expected_b = REGISTRY.create("bitmask", store_b, vocab).matches_many(query)
        with ShardWorkerPool(2) as pool:
            a = REGISTRY.create(
                "sharded", store_a, vocab, shard_size=64, pool=pool
            )
            b = REGISTRY.create(
                "sharded", store_b, vocab, shard_size=64, pool=pool
            )
            # Interleaved evaluations: each call displaces the other's
            # worker state, exercising the stale-retry re-ship path.
            assert a.matches_many(query) == expected_a
            assert b.matches_many(query) == expected_b
            assert a.matches_many(query) == expected_a
            assert b.matches_many(query) == expected_b
        assert pool.closed

    def test_backend_close_leaves_injected_pool_open(self, store, vocab):
        with ShardWorkerPool(1) as pool:
            backend = REGISTRY.create("sharded", store, vocab, pool=pool)
            backend.matches_many(intro_query())
            backend.close()
            assert not pool.closed
            assert pool.ping() == [None]

    def test_closed_injected_pool_raises(self, store, vocab):
        pool = ShardWorkerPool(1)
        backend = REGISTRY.create("sharded", store, vocab, pool=pool)
        pool.close()
        with pytest.raises(RuntimeError, match="injected worker pool"):
            backend.matches_many(intro_query())


class TestLifecycle:
    def test_conflicting_modes_rejected(self, store, vocab):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1) as executor:
            with pytest.raises(ValueError, match="at most one"):
                REGISTRY.create(
                    "sharded", store, vocab, executor=executor, processes=2
                )

    def test_invalid_process_count_rejected(self, store, vocab):
        with pytest.raises(ValueError, match="processes"):
            REGISTRY.create("sharded", store, vocab, processes=-1)

    def test_double_close_is_noop(self, store, vocab):
        backend = REGISTRY.create("sharded", store, vocab, processes=1)
        backend.matches_many(intro_query())
        backend.close()
        backend.close()

    def test_closed_backend_rejects_pool_evaluation(self, store, vocab):
        backend = REGISTRY.create("sharded", store, vocab, processes=1)
        backend.matches_many(intro_query())
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.matches_many(intro_query())

    def test_crash_recovery_builds_fresh_owned_pool(self, store, vocab):
        backend = REGISTRY.create(
            "sharded", store, vocab, shard_size=64, processes=2
        )
        try:
            expected = backend.matches_many(intro_query())
            backend._lease.pool._send(0, ("abort",))
            with pytest.raises(WorkerCrashError):
                backend.matches_many(intro_query())
            # The owned pool is rebuilt and re-shipped on the next call.
            assert backend.matches_many(intro_query()) == expected
        finally:
            backend.close()

    def test_lazy_pool_creation(self, store, vocab):
        backend = REGISTRY.create("sharded", store, vocab, processes=2)
        assert backend._lease.pool is None  # no workers until first call
        backend.close()
