"""Unit tests for the sqlite snapshot-backed session store (§2f/§2h)."""

from __future__ import annotations

import json
import multiprocessing
import os
import random

import pytest

from repro.core.generators import random_qhorn1
from repro.core.tuples import Question
from repro.interactive import LearningSession, SessionSnapshot
from repro.learning import Qhorn1Learner
from repro.oracle import QueryOracle
from repro.protocol import answer_round
from repro.server import SessionStore, StoredSession
from repro.server.store import owner_alive, owner_token


def q(n, *masks):
    return Question.of(n, masks)


def record(session_id="s1", **overrides):
    defaults = dict(
        session_id=session_id,
        learner="qhorn1",
        n=3,
        status="active",
        rounds=2,
        questions=4,
        snapshot=SessionSnapshot(
            n=3,
            responses=[True, False],
            pending=[q(3, 7), q(3, 1)],
            restarts=1,
        ),
    )
    defaults.update(overrides)
    return StoredSession(**defaults)


class TestSessionStore:
    def test_save_load_round_trip(self):
        with SessionStore() as store:
            stored = record()
            store.save(stored)
            loaded = store.load("s1")
            assert loaded == stored
            assert not loaded.finished

    def test_load_missing_returns_none(self):
        with SessionStore() as store:
            assert store.load("nope") is None

    def test_upsert_overwrites(self):
        with SessionStore() as store:
            store.save(record(rounds=1))
            store.save(record(rounds=9, status="finished"))
            loaded = store.load("s1")
            assert loaded.rounds == 9 and loaded.finished
            assert len(store) == 1

    def test_save_updates_in_place(self):
        """A re-save rewrites the row where it is (a delete and insert
        would move it to a new rowid), snapshot text included."""
        with SessionStore() as store:
            store.save(record("s1"))
            store.save(record("s2"))
            store.save(record("s1", rounds=7, owner="7.w"))
            row = store.connection.execute(
                "SELECT rowid, rounds, owner, snapshot FROM sessions "
                "WHERE session_id = 's1'"
            ).fetchone()
            assert row == (1, 7, "7.w", record().snapshot.to_json())
            assert SessionSnapshot.from_dict(json.loads(row[3])) == record().snapshot

    def test_container_and_listing(self):
        with SessionStore() as store:
            store.save(record("a"))
            store.save(record("b", status="finished"))
            assert "a" in store and "c" not in store
            assert len(store) == 2
            assert store.session_ids() == ["a", "b"]
            assert store.session_ids(status="active") == ["a"]
            assert store.session_ids(status="finished") == ["b"]
            store.delete("a")
            assert "a" not in store and len(store) == 1

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "sessions.sqlite"
        with SessionStore(path) as store:
            store.save(record())
        with SessionStore(path) as store:
            assert store.load("s1") == record()

    def test_stored_snapshot_resumes_a_real_session(self, tmp_path):
        """The store's row is sufficient to rebuild a parked dialogue at
        its exact parked round — the §2f durability contract."""
        target = random_qhorn1(3, random.Random(11))
        oracle = QueryOracle(target)
        factory = lambda o: Qhorn1Learner(o)  # noqa: E731
        session = LearningSession(factory, n=3)
        event = session.step()
        event = session.feed(answer_round(oracle, event))
        path = tmp_path / "sessions.sqlite"
        with SessionStore(path) as store:
            store.save(
                StoredSession(
                    session_id="park",
                    learner="qhorn1",
                    n=3,
                    status="active",
                    rounds=2,
                    questions=len(session.transcript),
                    snapshot=session.snapshot(),
                )
            )
        with SessionStore(path) as store:
            row = store.load("park")
        fresh = LearningSession(factory, n=3)
        resumed = fresh.resume(row.snapshot)
        assert list(resumed.questions) == list(event.questions)

    def test_corrupt_snapshot_version_raises(self):
        with SessionStore() as store:
            store.save(record())
            store.connection.execute(
                "UPDATE sessions SET snapshot = ?",
                ('{"version": 99, "n": 3, "responses": []}',),
            )
            store.connection.commit()
            with pytest.raises(Exception, match="version"):
                store.load("s1")


class TestMultiProcessReadiness:
    """The §2h prerequisites: WAL, a short busy timeout and autocommit —
    what makes two processes' connections to one file safe."""

    def test_file_store_opens_in_wal_mode(self, tmp_path):
        with SessionStore(tmp_path / "s.sqlite") as store:
            (mode,) = store.connection.execute(
                "PRAGMA journal_mode"
            ).fetchone()
            assert mode == "wal"
            (sync,) = store.connection.execute(
                "PRAGMA synchronous"
            ).fetchone()
            assert sync == 1  # NORMAL
            (busy,) = store.connection.execute(
                "PRAGMA busy_timeout"
            ).fetchone()
            assert busy == 1_000  # BUSY_TIMEOUT, 1 s

    def test_connection_is_autocommit(self):
        # isolation_level=None: every statement commits on its own, so a
        # second process never waits behind a dangling open transaction.
        with SessionStore() as store:
            assert store.connection.isolation_level is None
            assert not store.connection.in_transaction
            store.save(record())
            assert not store.connection.in_transaction

    def test_two_handles_interleave_on_one_file(self, tmp_path):
        """Two store connections on one file (two servers sharing it)
        interleaving save/load/delete and observing each other."""
        path = tmp_path / "s.sqlite"
        with SessionStore(path) as a, SessionStore(path) as b:
            a.save(record("one"))
            assert b.load("one") == record("one")
            b.save(record("two", rounds=5))
            assert a.session_ids() == ["one", "two"]
            a.save(record("two", rounds=7))  # upsert over b's write
            assert b.load("two").rounds == 7
            b.delete("one")
            assert "one" not in a
            a.save(record("one", status="finished"))
            assert b.session_ids(status="finished") == ["one"]

    def test_pre_claim_store_files_migrate(self, tmp_path):
        """A §2f-era store file (no owner column) opens and claims."""
        import sqlite3

        path = tmp_path / "old.sqlite"
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE sessions ("
            "session_id TEXT PRIMARY KEY, learner TEXT NOT NULL, "
            "n INTEGER NOT NULL, status TEXT NOT NULL, "
            "rounds INTEGER NOT NULL, questions INTEGER NOT NULL, "
            "snapshot TEXT NOT NULL)"
        )
        old = record()
        connection.execute(
            "INSERT INTO sessions VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                old.session_id,
                old.learner,
                old.n,
                old.status,
                old.rounds,
                old.questions,
                __import__("json").dumps(old.snapshot.to_dict()),
            ),
        )
        connection.commit()
        connection.close()
        with SessionStore(path) as store:
            loaded = store.load("s1")
            assert loaded == old and loaded.owner is None
            assert store.claim("s1", "token")

    def test_closed_store_rejects_use(self):
        store = SessionStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.load("s1")


class TestClaimTokens:
    """The §2h ownership handoff: CAS claims, releases, dead-pid steal."""

    def test_claim_unowned_then_idempotent_reclaim(self):
        with SessionStore() as store:
            store.save(record())
            assert store.claim("s1", "100.a")
            assert store.owner_of("s1") == "100.a"
            assert store.claim("s1", "100.a")  # idempotent

    def test_concurrent_claim_against_live_owner_rejected(self):
        mine = owner_token("a")  # this test process: definitely alive
        with SessionStore() as store:
            store.save(record())
            assert store.claim("s1", mine)
            assert not store.claim("s1", owner_token("b"))
            assert store.owner_of("s1") == mine

    def test_release_then_claim_hands_off(self):
        mine = owner_token("a")
        theirs = owner_token("b")
        with SessionStore() as store:
            store.save(record())
            assert store.claim("s1", mine)
            assert store.release("s1", mine)
            assert store.owner_of("s1") is None
            assert store.claim("s1", theirs)

    def test_release_requires_ownership(self):
        with SessionStore() as store:
            store.save(record())
            assert store.claim("s1", owner_token("a"))
            assert not store.release("s1", owner_token("b"))
            assert store.owner_of("s1") == owner_token("a")

    def test_claim_unknown_session_fails(self):
        with SessionStore() as store:
            assert not store.claim("nope", "1.x")

    def test_dead_owner_is_stolen(self):
        """A killed server can never release; its pid goes dead and the
        next claimant steals the session — the crash-resume path."""

        def exit_now():
            os._exit(0)

        process = multiprocessing.Process(target=exit_now)
        process.start()
        process.join(timeout=30)
        dead_token = f"{process.pid}.gone"
        assert not owner_alive(dead_token)
        with SessionStore() as store:
            store.save(record(owner=dead_token))
            assert store.owner_of("s1") == dead_token
            assert store.claim("s1", owner_token("survivor"))
            assert store.owner_of("s1") == owner_token("survivor")

    def test_owner_alive_probes(self):
        assert owner_alive(owner_token("me"))
        assert not owner_alive("0.zero")
        assert not owner_alive("-5.negative")
        assert owner_alive("garbage-token")  # unparseable: never steal

    def test_save_persists_owner_and_equality_ignores_it(self):
        with SessionStore() as store:
            store.save(record(owner="7.w"))
            loaded = store.load("s1")
            assert loaded.owner == "7.w"
            assert loaded == record()  # owner excluded from comparison
