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

One store file may be shared by more than one process: two ``repro
serve`` processes can open one ``--store`` at once, and a server started
after a killed one finds the dead server's rows still claimed.  That
imposes two rules (DESIGN.md §2h):

* **Connections commit every statement and never wait long.**
  File-backed connections open in WAL journal mode with
  ``synchronous=NORMAL``, in sqlite autocommit mode
  (``isolation_level=None``) so every statement commits atomically on
  its own.  A statement waits at most :data:`BUSY_TIMEOUT` seconds for
  another connection's write lock and then fails with ``database is
  locked``, which the server turns into a recoverable error; the wait
  runs on the server's event loop, so it must stay short.
* **Ownership is a claim token.**  A server that holds a session in
  memory, live or parked warm, owns its row (``owner`` column).
  :meth:`claim` is an atomic compare-and-swap: it succeeds on unowned
  (released) rows and on rows whose owner token names a dead process
  (a killed server cannot release; liveness is checked by pid),
  and *rejects* rows owned by another running server — the
  concurrent-claim error the wire surfaces.  A server releases a
  session when it leaves memory (idle eviction, a full warm table, a
  fault, clean shutdown), and only then may another rebuild it.
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

#: Seconds a statement waits on another connection's write lock before
#: failing with ``database is locked``.  The wait blocks the server's
#: event loop, and a failed round-boundary save plus the claim release
#: after it wait twice.
BUSY_TIMEOUT = 1.0


def owner_token(worker_id: str) -> str:
    """A claim token naming this process: ``"<pid>.<worker_id>"``.

    The pid prefix is what lets :meth:`SessionStore.claim` steal sessions
    from a killed server (which can never release them) while still
    rejecting claims against a live one.
    """
    return f"{os.getpid()}.{worker_id}"


def owner_alive(token: str) -> bool:
    """Whether the process named by a claim token is still running.

    Unparseable tokens count as alive (never steal what we cannot
    check); pid probing is same-host only, as is sharing one sqlite
    store file.
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
    produced it); ``rounds``/``questions`` are the dialogue's totals so
    far, as its log fixes them (a server rebuilding the session counts
    them again by replay and does not read them).  ``owner`` is
    the claim token of the server currently holding the session live
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
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        # isolation_level=None puts sqlite in autocommit: every statement
        # is its own atomic transaction, so two processes on one file can
        # interleave saves and claims without either holding a
        # transaction open across the wire (there is no implicit BEGIN
        # to forget to close).
        connection = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT, isolation_level=None
        )
        # WAL lets readers run beside the one writer; NORMAL is durable
        # to an application crash without an fsync per round boundary.
        # Both are no-ops on :memory: stores.
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute("PRAGMA synchronous = NORMAL")
        connection.execute(_SCHEMA)
        self._migrate(connection)
        self._connection: sqlite3.Connection | None = connection

    @staticmethod
    def _migrate(connection: sqlite3.Connection) -> None:
        """Store files older than the claims lack the ``owner`` column."""
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
        """The open connection; ``RuntimeError`` once the store closed."""
        if self._connection is None:
            raise RuntimeError("SessionStore is closed")
        return self._connection

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, record: StoredSession) -> None:
        """Write-through one parked session.

        The snapshot is stored as :meth:`SessionSnapshot.to_json
        <repro.interactive.session.SessionSnapshot.to_json>`, the text of
        ``json.dumps(record.snapshot.to_dict())`` written without
        building the dicts.  An existing row is updated in place (an
        ``INSERT OR REPLACE`` would delete it and insert it again, index
        entries included).
        """
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
                record.snapshot.to_json(),
                record.owner,
            ),
        )

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
    def claim(self, session_id: str, owner: str) -> bool:
        """Atomically claim a session for ``owner`` (a claim token).

        Succeeds when the row is unowned (released), already ours
        (idempotent), or owned by a dead process (a killed server can
        never release; its sessions must stay resumable).  Returns
        ``False`` on an unknown session or one owned by another running
        server — the caller surfaces that as the concurrent-claim error.
        """
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
        if self._connection is not None:
            self._connection.close()
        self._connection = None

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SessionStore(path={self.path!r}, sessions={len(self)})"
