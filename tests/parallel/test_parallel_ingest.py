"""The parallel-ingest path: raw shard rows abstracted worker-side.

``ShardedBitmaskBackend`` in pool mode defaults to ``ingest="raw"``:
the coordinator ships each shard's raw rows plus the vocabulary
(``build_shards``) and the workers run the abstraction themselves.
These tests pin the property that makes that ingest mode safe to
default: the worker-side build is **bit-identical** to a coordinator
build — same shard offsets/counts, same inverted indexes, same
``all_bits`` — observed through the pool's ``dump_shards``
introspection, across relation versions, stale displacement and
worker crashes mid-build.
"""

from __future__ import annotations

import random

import pytest

from repro.data.backends import REGISTRY
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)
from repro.data.relation import NestedObject
from repro.parallel import (
    ShardWorkerPool,
    StaleShardStateError,
    WorkerCrashError,
    shard_payloads,
)


@pytest.fixture(scope="module")
def vocab():
    return storefront_vocabulary()


@pytest.fixture()
def store(vocab):
    return random_store(250, random.Random(77))


def _coordinator_payloads(store, vocab, shard_size):
    """The wire form of a coordinator-side (``ingest="built"``) build."""
    serial = REGISTRY.create("sharded", store, vocab, shard_size=shard_size)
    serial.refresh(force=True)
    return shard_payloads(serial._shards)


class TestBuildEquivalence:
    def test_raw_build_bit_identical_to_coordinator_build(self, store, vocab):
        expected = _coordinator_payloads(store, vocab, shard_size=37)
        with REGISTRY.create(
            "sharded", store, vocab, shard_size=37, processes=2
        ) as backend:
            assert backend.ingest == "raw"
            backend.matching_bits(intro_query())  # ships raw, builds remotely
            dumped = backend._lease.pool.dump_shards(backend._shipped_token)
        assert dumped == expected

    def test_built_ingest_ships_same_state(self, store, vocab):
        expected = _coordinator_payloads(store, vocab, shard_size=37)
        with REGISTRY.create(
            "sharded",
            store,
            vocab,
            shard_size=37,
            processes=2,
            ingest="built",
        ) as backend:
            backend.matching_bits(intro_query())
            dumped = backend._lease.pool.dump_shards(backend._shipped_token)
        assert dumped == expected

    def test_version_bump_rebuilds_identically(self, store, vocab):
        with REGISTRY.create(
            "sharded", store, vocab, shard_size=37, processes=2
        ) as backend:
            backend.matching_bits(intro_query())
            first_token = backend._shipped_token
            store.insert(
                NestedObject(key="late", rows=[dict(store.objects[0].rows[0])])
            )
            backend.matching_bits(intro_query())  # stale → rebuild + re-ship
            assert backend._shipped_token != first_token
            assert backend._built_version == store.version
            dumped = backend._lease.pool.dump_shards(backend._shipped_token)
        assert dumped == _coordinator_payloads(store, vocab, shard_size=37)

    def test_dump_of_retired_token_is_stale(self, store, vocab):
        with REGISTRY.create(
            "sharded", store, vocab, shard_size=37, processes=2
        ) as backend:
            backend.matching_bits(intro_query())
            pool = backend._lease.pool
            retired = backend._shipped_token
            store.insert(
                NestedObject(key="late", rows=[dict(store.objects[0].rows[0])])
            )
            backend.matching_bits(intro_query())
            with pytest.raises(StaleShardStateError):
                pool.dump_shards(retired)


class TestDisplacementAndCrash:
    def test_displaced_raw_state_reships_and_rebuilds(self, vocab):
        """Two raw-ingest tenants on one pool: each displacement retires
        the other's worker-side build, and the stale-retry re-ship runs
        the worker-side abstraction again — answers never mix."""
        store_a = random_store(150, random.Random(21))
        store_b = random_store(120, random.Random(22))
        query = intro_query()
        expected_a = REGISTRY.create("bitmask", store_a, vocab).matches_many(query)
        expected_b = REGISTRY.create("bitmask", store_b, vocab).matches_many(query)
        with ShardWorkerPool(2) as pool:
            a = REGISTRY.create(
                "sharded", store_a, vocab, shard_size=31, pool=pool
            )
            b = REGISTRY.create(
                "sharded", store_b, vocab, shard_size=31, pool=pool
            )
            assert a.ingest == "raw" and b.ingest == "raw"
            assert a.matches_many(query) == expected_a
            assert b.matches_many(query) == expected_b
            assert a.matches_many(query) == expected_a
            assert pool.dump_shards(a._shipped_token) == (
                _coordinator_payloads(store_a, vocab, shard_size=31)
            )

    def test_worker_crash_mid_build_raises_cleanly(self, store, vocab):
        """A worker dying while the raw build broadcast is in flight
        surfaces as WorkerCrashError on that very call, not as a wrong
        or partial build."""
        pool = ShardWorkerPool(2)
        backend = REGISTRY.create(
            "sharded", store, vocab, shard_size=37, pool=pool
        )
        pool._send(0, ("abort",))  # dies before the build request lands
        with pytest.raises(WorkerCrashError):
            backend.matching_bits(intro_query())
        assert pool.closed

    def test_owned_pool_recovers_with_fresh_raw_build(self, store, vocab):
        backend = REGISTRY.create(
            "sharded", store, vocab, shard_size=37, processes=2
        )
        try:
            expected = backend.matches_many(intro_query())
            backend._lease.pool._send(0, ("abort",))
            with pytest.raises(WorkerCrashError):
                backend.matches_many(intro_query())
            # Fresh owned pool, fresh worker-side build, same answers.
            assert backend.matches_many(intro_query()) == expected
            assert backend._lease.pool.dump_shards(
                backend._shipped_token
            ) == _coordinator_payloads(store, vocab, shard_size=37)
        finally:
            backend.close()
