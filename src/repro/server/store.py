"""Snapshot-backed session store: dialogues that survive restarts (§2f/§2h).

The server parks every :class:`~repro.interactive.session.LearningSession`
as a :class:`~repro.interactive.session.SessionSnapshot` replay log on
each round boundary.  This module backs those parked snapshots with
SQLite on disk: one table, write-through on every save, an upsert that
updates the row in place keyed by session id, and a context-manager face
over an owned connection.

Because a snapshot *is* the session state (learners are deterministic
given responses, DESIGN.md §2e), a row here is everything needed to
resume a dialogue at its exact parked round — after a disconnect, an
idle eviction, or a full server restart.  ``:memory:`` stores work for
tests and survive only the process, file-backed stores survive anything.

Since §2h the store is also the *only* shared state of a multi-process
:class:`~repro.server.multiproc.ServerFleet`, which imposes three rules:

* **Connections are per process.**  File-backed connections open in WAL
  journal mode with ``busy_timeout`` and ``synchronous=NORMAL``, in
  sqlite autocommit mode (``isolation_level=None``) so every statement
  commits atomically on its own — concurrent workers serialize on the
  WAL writer lock instead of corrupting each other.  A connection must
  never cross :func:`os.fork`: :meth:`reopen` rebinds explicitly, and
  every access goes through a pid guard that rebinds automatically when
  it finds itself on the wrong side of a fork.
* **Ownership is a claim token.**  A worker that holds a session live in
  memory owns its row (``owner`` column).  :meth:`claim` is an atomic
  compare-and-swap: it succeeds on unowned rows (a parked session is
  released property) and on rows whose owner token names a dead process
  (a SIGKILLed worker cannot release; liveness is checked by pid), and
  *rejects* rows live on another running worker — the concurrent-claim
  error the wire surfaces.  Workers park-and-release (quit, eviction,
  clean shutdown) before any other worker may rebuild the session.  Its
  conditional form claims a row only while it still holds exactly what
  this worker last saved there, which is how a worker reuses a session
  it parked warm without reading the row back.
* **Metering aggregates through the store.**  Each worker persists its
  server counters under its worker id (:meth:`save_worker_stats`);
  :meth:`fleet_stats` sums them into the fleet-wide ``repro serve``
  stats line.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.interactive.session import SessionSnapshot

__all__ = ["StoredSession", "SessionStore", "owner_token", "owner_alive"]

#: Session lifecycle states persisted alongside the snapshot.
ACTIVE = "active"
FINISHED = "finished"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id TEXT PRIMARY KEY,
    learner TEXT NOT NULL,
    n INTEGER NOT NULL,
    status TEXT NOT NULL,
    rounds INTEGER NOT NULL,
    questions INTEGER NOT NULL,
    snapshot TEXT NOT NULL,
    owner TEXT
)
"""

#: ``session_ids(status=...)`` is on the accept path of every fleet
#: worker; without this index it scans the whole table.
_STATUS_INDEX = (
    "CREATE INDEX IF NOT EXISTS sessions_status ON sessions(status)"
)

_WORKER_STATS_SCHEMA = """
CREATE TABLE IF NOT EXISTS worker_stats (
    worker_id TEXT PRIMARY KEY,
    stats TEXT NOT NULL
)
"""


def owner_token(worker_id: str) -> str:
    """A claim token naming this process: ``"<pid>.<worker_id>"``.

    The pid prefix is what lets :meth:`SessionStore.claim` steal sessions
    from a SIGKILLed worker (which can never release them) while still
    rejecting claims against a live one.
    """
    return f"{os.getpid()}.{worker_id}"


def owner_alive(token: str) -> bool:
    """Whether the process named by a claim token is still running.

    Unparseable tokens count as alive (never steal what we cannot
    check); pid probing is same-host only, which is exactly the fleet's
    deployment shape (N forked workers, one store file).
    """
    pid_text, _, _ = token.partition(".")
    try:
        pid = int(pid_text)
    except ValueError:
        return True
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and friends: someone is there
        return True
    return True


@dataclass
class StoredSession:
    """One persisted dialogue: identity, progress counters, replay log.

    ``learner`` is the registry name the server rebuilds the learner
    factory from (a snapshot replays only through the same learner that
    produced it); ``rounds``/``questions`` are lifetime totals across
    restarts, which is what per-round metering bills on.  ``owner`` is
    the claim token of the worker currently holding the session live
    (``None`` = parked and free to claim).
    """

    session_id: str
    learner: str
    n: int
    status: str
    rounds: int
    questions: int
    snapshot: SessionSnapshot
    owner: str | None = field(default=None, compare=False)

    @property
    def finished(self) -> bool:
        return self.status == FINISHED


class SessionStore:
    """SQLite persistence for parked learning sessions.

    Parameters
    ----------
    path:
        Database file; created when absent, reused when present.
        ``":memory:"`` keeps the store process-local (tests).
    busy_timeout:
        Seconds a statement waits on another process's write lock before
        failing — the multi-writer knob (WAL mode serializes writers).
    """

    def __init__(
        self, path: str | Path = ":memory:", busy_timeout: float = 30.0
    ) -> None:
        self.path = str(path)
        self.busy_timeout = busy_timeout
        self._connection: sqlite3.Connection | None = None
        self._pid = os.getpid()
        self._connect()

    # ------------------------------------------------------------------
    # Connection discipline (per-process, fork-aware, autocommit)
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        # isolation_level=None puts sqlite in autocommit: every statement
        # is its own atomic transaction, so two worker processes can
        # interleave saves/claims without ever holding a dangling
        # transaction open across the wire (the commit discipline §2h
        # requires — there is no implicit BEGIN to forget to close).
        connection = sqlite3.connect(
            self.path, timeout=self.busy_timeout, isolation_level=None
        )
        connection.execute(
            f"PRAGMA busy_timeout = {int(self.busy_timeout * 1000)}"
        )
        # WAL lets N workers read while one writes; NORMAL is durable to
        # application crash (the fleet's failure mode) without an fsync
        # per round boundary.  Both are no-ops on :memory: stores.
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute("PRAGMA synchronous = NORMAL")
        connection.execute(_SCHEMA)
        connection.execute(_STATUS_INDEX)
        connection.execute(_WORKER_STATS_SCHEMA)
        self._migrate(connection)
        self._connection = connection
        self._pid = os.getpid()

    @staticmethod
    def _migrate(connection: sqlite3.Connection) -> None:
        """Pre-§2h store files lack the ``owner`` claim column."""
        columns = {
            row[1]
            for row in connection.execute("PRAGMA table_info(sessions)")
        }
        if "owner" not in columns:
            connection.execute(
                "ALTER TABLE sessions ADD COLUMN owner TEXT"
            )

    @property
    def connection(self) -> sqlite3.Connection:
        """The per-process connection, rebound if a fork intervened.

        A sqlite connection must never be shared across ``fork()``; a
        store object inherited by a worker process transparently reopens
        on first use (the inherited handle is abandoned, not closed —
        closing it from the child could step on the parent's side).
        """
        if self._connection is None:
            raise RuntimeError("SessionStore is closed")
        if os.getpid() != self._pid:
            self._connection = None  # abandon, do not close, see above
            self._connect()
        return self._connection

    def reopen(self) -> None:
        """Drop the current connection and bind a fresh one.

        For workers that inherit a file-backed store across a process
        boundary and want the rebind to happen eagerly rather than on
        first use.  On ``:memory:`` stores this starts an empty store —
        only file-backed stores are shared state.
        """
        if self._connection is not None and os.getpid() == self._pid:
            self._connection.close()
        self._connection = None
        self._connect()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, record: StoredSession) -> str:
        """Write-through one parked session; returns the snapshot JSON it
        wrote, which a later conditional :meth:`claim` compares.

        An existing row is updated in place (an ``INSERT OR REPLACE``
        would delete it and insert it again, index entries included).
        """
        snapshot = json.dumps(record.snapshot.to_dict())
        self.connection.execute(
            "INSERT INTO sessions VALUES (?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(session_id) DO UPDATE SET "
            "learner = excluded.learner, n = excluded.n, "
            "status = excluded.status, rounds = excluded.rounds, "
            "questions = excluded.questions, snapshot = excluded.snapshot, "
            "owner = excluded.owner",
            (
                record.session_id,
                record.learner,
                record.n,
                record.status,
                record.rounds,
                record.questions,
                snapshot,
                record.owner,
            ),
        )
        return snapshot

    def load(self, session_id: str) -> StoredSession | None:
        """The parked session under ``session_id``, or ``None``."""
        row = self.connection.execute(
            "SELECT learner, n, status, rounds, questions, snapshot, owner "
            "FROM sessions WHERE session_id = ?",
            (session_id,),
        ).fetchone()
        if row is None:
            return None
        learner, n, status, rounds, questions, snapshot, owner = row
        return StoredSession(
            session_id=session_id,
            learner=learner,
            n=int(n),
            status=status,
            rounds=int(rounds),
            questions=int(questions),
            snapshot=SessionSnapshot.from_dict(json.loads(snapshot)),
            owner=owner,
        )

    def delete(self, session_id: str) -> None:
        self.connection.execute(
            "DELETE FROM sessions WHERE session_id = ?", (session_id,)
        )

    def session_ids(self, status: str | None = None) -> list[str]:
        """All stored session ids, optionally filtered by status."""
        if status is None:
            rows = self.connection.execute(
                "SELECT session_id FROM sessions ORDER BY session_id"
            )
        else:
            rows = self.connection.execute(
                "SELECT session_id FROM sessions WHERE status = ? "
                "ORDER BY session_id",
                (status,),
            )
        return [session_id for (session_id,) in rows]

    # ------------------------------------------------------------------
    # Ownership handoff (§2h): claim tokens with dead-owner steal
    # ------------------------------------------------------------------
    def claim(
        self,
        session_id: str,
        owner: str,
        unchanged: tuple[StoredSession, str] | None = None,
    ) -> bool:
        """Atomically claim a session for ``owner`` (a claim token).

        Succeeds when the row is unowned (parked-and-released), already
        ours (idempotent), or owned by a dead process (a killed worker
        can never release; its sessions must stay resumable).  Returns
        ``False`` on an unknown session or one live on another running
        worker — the caller surfaces that as the concurrent-claim error.

        With ``unchanged``, a record this store saved and the JSON
        :meth:`save` returned for it, the claim is one conditional
        ``UPDATE``: it succeeds only on an active, unowned-or-ours row
        that still holds that record's learner, ``n``, ``rounds``,
        ``questions`` and snapshot text byte for byte.  It never steals;
        on any other row it returns ``False`` and changes nothing.
        """
        if unchanged is not None:
            record, snapshot = unchanged
            cursor = self.connection.execute(
                "UPDATE sessions SET owner = ? "
                "WHERE session_id = ? AND status = ? AND learner = ? "
                "AND n = ? AND rounds = ? AND questions = ? "
                "AND snapshot = ? AND (owner IS NULL OR owner = ?)",
                (
                    owner,
                    session_id,
                    ACTIVE,
                    record.learner,
                    record.n,
                    record.rounds,
                    record.questions,
                    snapshot,
                    owner,
                ),
            )
            return bool(cursor.rowcount)
        cursor = self.connection.execute(
            "UPDATE sessions SET owner = ? "
            "WHERE session_id = ? AND (owner IS NULL OR owner = ?)",
            (owner, session_id, owner),
        )
        if cursor.rowcount:
            return True
        row = self.connection.execute(
            "SELECT owner FROM sessions WHERE session_id = ?", (session_id,)
        ).fetchone()
        if row is None or row[0] is None:
            # Unknown id, or released between our two statements — the
            # CAS below would also cover the latter, but a second plain
            # claim keeps the logic obvious.
            return row is not None and self.claim(session_id, owner)
        holder = row[0]
        if owner_alive(holder):
            return False
        # Steal from the dead: CAS against the exact stale token, so two
        # stealers racing resolve to exactly one winner.
        cursor = self.connection.execute(
            "UPDATE sessions SET owner = ? "
            "WHERE session_id = ? AND owner = ?",
            (owner, session_id, holder),
        )
        return bool(cursor.rowcount)

    def release(self, session_id: str, owner: str) -> bool:
        """Release ``owner``'s claim (no-op unless we hold it)."""
        cursor = self.connection.execute(
            "UPDATE sessions SET owner = NULL "
            "WHERE session_id = ? AND owner = ?",
            (session_id, owner),
        )
        return bool(cursor.rowcount)

    def owner_of(self, session_id: str) -> str | None:
        row = self.connection.execute(
            "SELECT owner FROM sessions WHERE session_id = ?", (session_id,)
        ).fetchone()
        return None if row is None else row[0]

    # ------------------------------------------------------------------
    # Fleet-wide metering aggregation (§2h)
    # ------------------------------------------------------------------
    def save_worker_stats(self, worker_id: str, stats: dict) -> None:
        """Upsert one worker's server counters (on clean shutdown)."""
        self.connection.execute(
            "INSERT OR REPLACE INTO worker_stats VALUES (?, ?)",
            (worker_id, json.dumps(stats)),
        )

    def clear_worker_stats(self) -> None:
        """Reset the per-worker counters (a fresh fleet start)."""
        self.connection.execute("DELETE FROM worker_stats")

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker counters, keyed by worker id."""
        return {
            worker_id: json.loads(stats)
            for worker_id, stats in self.connection.execute(
                "SELECT worker_id, stats FROM worker_stats "
                "ORDER BY worker_id"
            )
        }

    def fleet_stats(self) -> dict[str, int]:
        """Every worker's counters summed into one fleet-wide view."""
        merged: dict[str, int] = {"workers": 0}
        for stats in self.worker_stats().values():
            merged["workers"] += 1
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        return merged

    # ------------------------------------------------------------------
    # Container face / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        (count,) = self.connection.execute(
            "SELECT COUNT(*) FROM sessions"
        ).fetchone()
        return int(count)

    def __contains__(self, session_id: str) -> bool:
        return (
            self.connection.execute(
                "SELECT 1 FROM sessions WHERE session_id = ?", (session_id,)
            ).fetchone()
            is not None
        )

    def close(self) -> None:
        if self._connection is not None and os.getpid() == self._pid:
            self._connection.close()
        self._connection = None

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SessionStore(path={self.path!r}, sessions={len(self)})"
