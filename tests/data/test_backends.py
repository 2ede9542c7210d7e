"""Unit tests for the one engine's index and the SQL reference
(DESIGN.md §2c).

The answer-identity contract between them is enforced at scale by
``tests/properties/test_prop_backends.py``; these tests pin each leg on
the chocolate-store domain — answers, staleness and width checks — and
the dbapi connection and lifecycle.

``TestBackendContract`` runs every case on three legs built directly:
``RelationIndex``, ``DbApiBackend`` on its default shared-memory
database, and ``DbApiBackend`` on a file-backed store (the on-disk
reload path).
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.core.parser import parse_query
from repro.core.query import QhornQuery
from repro.data import DbApiBackend, QueryEngine, RelationIndex
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)
from repro.data.dbapi import memory_uri

WORKLOAD = [
    "∀x1 ∃x2x3",
    "∀x1→x2",
    "∃x3x4",
    "∀x3",
]


@pytest.fixture(scope="module")
def vocab():
    return storefront_vocabulary()


@pytest.fixture()
def store():
    return random_store(60, random.Random(1234))


def _queries():
    out = [parse_query(s, n=4) for s in WORKLOAD]
    out.append(QhornQuery(n=4))  # empty query
    out.append(parse_query("∀x1", n=4, require_guarantees=False))
    return out


def _reference(engine, query):
    return [o.key for o in engine.execute(query)]


@pytest.fixture(params=["bitmask", "dbapi", "dbapi-file"])
def build(request, tmp_path):
    """Builds one contract leg over a relation and vocabulary; the SQL
    legs are closed after the test."""
    opened = []

    def leg(relation, vocabulary):
        if request.param == "bitmask":
            return RelationIndex(relation, vocabulary)
        uri = None
        if request.param == "dbapi-file":
            uri = f"file:{tmp_path}/contract.sqlite"
        backend = DbApiBackend(relation, vocabulary, uri=uri)
        opened.append(backend)
        return backend

    yield leg
    for backend in opened:
        backend.close()


class TestBackendContract:
    def test_agrees_with_reference_path(self, store, vocab, build):
        engine = QueryEngine(store, vocab)
        backend = build(store, vocab)
        for query in _queries():
            expected = _reference(engine, query)
            assert [o.key for o in backend.execute(query)] == expected
            labels = backend.matches_many(query)
            assert labels == [o.key in expected for o in store]
            bits = backend.matching_bits(query)
            assert [bool(bits >> i & 1) for i in range(len(store))] == labels

    def test_auto_refresh_sees_inserts(self, store, vocab, build):
        backend = build(store, vocab)
        query = QhornQuery(n=4)
        before = backend.matches_many(query)
        assert backend.is_stale is False
        store.add_object(
            "late-arrival",
            rows=[
                {
                    "isDark": True,
                    "isSugarFree": True,
                    "hasNuts": True,
                    "hasFilling": True,
                    "origin": "Sweden",
                }
            ],
        )
        assert backend.is_stale
        after = backend.matches_many(query)
        assert len(after) == len(before) + 1
        assert after[-1] is True
        assert backend.is_stale is False

    def test_explicit_refresh(self, store, vocab, build):
        backend = build(store, vocab)
        backend.matches_many(QhornQuery(n=4))
        assert backend.refresh() is False  # fresh: no rebuild
        store.add_object("x", rows=[])
        assert backend.refresh() is True
        assert len(backend.matches_many(QhornQuery(n=4))) == len(store)
        assert backend.refresh(force=True) is True

    def test_width_mismatch_rejected(self, store, vocab, build):
        backend = build(store, vocab)
        with pytest.raises(ValueError):
            backend.execute(parse_query("∃x1x2x3x4x5"))

    def test_answers_over_a_65_proposition_vocabulary(self, build):
        """No leg caps the vocabulary width: past 64 propositions each
        answers exactly like the reference path."""
        from repro.data import BoolIs, NestedRelation, Vocabulary
        from repro.data.schema import Attribute, FlatSchema, NestedSchema

        names = [f"b{i + 1}" for i in range(65)]
        flat = FlatSchema(
            name="wide", attributes=tuple(Attribute.boolean(n) for n in names)
        )
        wide = Vocabulary(flat, [BoolIs(n) for n in names])
        relation = NestedRelation(NestedSchema(name="wobjs", embedded=flat))
        rng = random.Random(65)
        for i in range(40):
            relation.add_object(
                f"w{i}",
                rows=[
                    {n: bool(rng.getrandbits(1)) for n in names}
                    for _ in range(rng.randrange(1, 4))
                ],
            )
        query = parse_query("∀x64→x65 ∃x1x65", n=65)
        expected = [o.key for o in QueryEngine(relation, wide).execute(query)]
        assert 0 < len(expected) < len(relation)
        backend = build(relation, wide)
        assert [o.key for o in backend.execute(query)] == expected


class TestBitmaskKernel:
    def test_scan_path_matches_tabled_path(self, store, vocab, monkeypatch):
        """With the table budget forced to zero the kernel refuses the
        superset-union tables and scans; answers must not change."""
        from repro.data import index

        tabled = RelationIndex(store, vocab)
        assert tabled._kernel._zeta_bits >= 0

        monkeypatch.setattr(index, "ZETA_TABLE_BUDGET", 0)
        scan = RelationIndex(store, vocab)
        assert scan._kernel._zeta_bits == -1

        for query in _queries():
            assert scan.matching_bits(query) == tabled.matching_bits(query)


class _FlakyConnection:
    """Once poisoned, the next statement raises as if the server dropped
    the connection."""

    def __init__(self, inner):
        self._inner = inner
        self.poisoned = False

    def cursor(self):
        return _FlakyCursor(self, self._inner.cursor())

    def commit(self):
        self._inner.commit()

    def close(self):
        self._inner.close()


class _FlakyCursor:
    def __init__(self, owner, inner):
        self._owner = owner
        self._inner = inner

    def execute(self, sql, params=()):
        if self._owner.poisoned:
            raise sqlite3.OperationalError("server closed the connection")
        return self._inner.execute(sql, params)

    def fetchall(self):
        return self._inner.fetchall()

    def close(self):
        self._inner.close()


class TestDbApiBackendLifecycle:
    def test_file_backed_uri_and_reuse(self, store, vocab, tmp_path):
        uri = f"file:{tmp_path}/store.sqlite"
        reference = QueryEngine(store, vocab)
        query = intro_query()
        expected = _reference(reference, query)
        with DbApiBackend(store, vocab, uri=uri) as backend:
            assert [o.key for o in backend.execute(query)] == expected
        assert (tmp_path / "store.sqlite").exists()
        # Reusing the file is safe: tables are dropped and recreated.
        with DbApiBackend(store, vocab, uri=uri) as backend:
            assert [o.key for o in backend.execute(query)] == expected

    def test_rejects_compiled_query(self, store, vocab):
        with DbApiBackend(store, vocab) as backend:
            with pytest.raises(TypeError, match="CompiledQuery"):
                backend.execute(intro_query().compile())

    def test_statement_cache_compiles_once(self, store, vocab):
        with DbApiBackend(store, vocab) as backend:
            query = intro_query()
            backend.execute(query)
            cached = backend._sql_cache[query]
            backend.matches_many(query)
            assert backend._sql_cache[query] is cached
            assert len(backend._sql_cache) == 1

    def test_retry_once_on_mid_flight_failure(self, store, vocab, tmp_path):
        path = str(tmp_path / "flaky.sqlite")
        made = []

        def connect():
            conn = _FlakyConnection(sqlite3.connect(path))
            made.append(conn)
            return conn

        backend = DbApiBackend(store, vocab, connect=connect)
        try:
            query = intro_query()
            first = backend.matching_bits(query)
            opened = backend.connection.connections_opened
            for conn in made:
                conn.poisoned = True
            assert backend.matching_bits(query) == first
            # The poisoned connection was closed and the statement
            # re-ran on a freshly opened one.
            assert backend.connection.connections_opened == opened + 1
            assert backend.connection.stale_retries == 1
        finally:
            backend.close()

    def test_close_is_idempotent(self, store, vocab):
        backend = DbApiBackend(store, vocab)
        backend.matches_many(QhornQuery(n=4))
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.matches_many(QhornQuery(n=4))

    @pytest.mark.parametrize(
        "uri", [":memory:", "", "file::memory:", "file:scratch?mode=memory"]
    )
    def test_private_in_memory_uri_rejected(self, store, vocab, uri):
        """Each connection would open its own empty database: a statement
        replayed on a fresh connection would find no ``objects`` table.
        The connector refuses such URIs."""
        with pytest.raises(ValueError, match="omit uri"):
            DbApiBackend(store, vocab, uri=uri)

    def test_shared_cache_memory_uri_survives_a_replay(self, store, vocab):
        """The accepted in-memory spelling: one shared-cache database
        that the keeper holds open, so the replacement connection of a
        replay sees the loaded relation."""
        expected = _reference(QueryEngine(store, vocab), intro_query())
        with DbApiBackend(store, vocab, uri=memory_uri()) as backend:
            backend.refresh()  # loads through the first connection
            backend.connection.handle.close()  # dies behind our back
            keys = [o.key for o in backend.execute(intro_query())]
            assert keys == expected
            assert backend.connection.connections_opened == 2
            assert backend.connection.stale_retries == 1
