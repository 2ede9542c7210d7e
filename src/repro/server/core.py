"""Multi-session asyncio round server (DESIGN.md §2e, §2f).

One event loop multiplexes many concurrent learning dialogues, each a
step-driven :class:`~repro.interactive.session.LearningSession` parked
between answers, persisted to a :class:`~repro.server.store.SessionStore`
on every round boundary so dialogues survive disconnects, idle eviction
and full server restarts.

The wire is newline-delimited JSON framed with a session id, one message
per line, over a TCP connection (``repro serve``) or a stdin/stdout pipe
pair (``repro serve --stdio``, :meth:`RoundServer.serve_stdio`):

client → server
    ``{"type": "open", "n": N, "learner": "qhorn1"}``
        start a dialogue; the server assigns the session id
    ``{"type": "reconnect", "session": ID}``
        resume a parked dialogue at its exact parked round (re-emits the
        pending round; works in-memory, after eviction, or after a server
        restart via the store)
    ``{"type": "answers", "session": ID, "answers": [...]}``
    ``{"type": "snapshot", "session": ID}``  emit the parked replay log
    ``{"type": "quit", "session": ID}``      park the session and detach

server → client
    ``{"type": "round", "session": ID, "index": i, "questions": [...]}``
    ``{"type": "snapshot", "session": ID, "snapshot": {...}}``
    ``{"type": "finished", "session": ID, ..., "metering": {...}}``
    ``{"type": "closed", "session": ID}``    reply to quit
    ``{"type": "error", "message": "...", ["session": ID]}``
        recoverable; the session (if any) stays parked at its round.  A
        line longer than :data:`MAX_LINE_BYTES` gets one error and the
        connection closes; a failed store write, or any other fault
        while handling a message, drops the live session, so the next
        message rebuilds it from its last durable round

Rounds are the billable unit of user interaction (Drachsler-Cohen et
al.; Bshouty et al. — see PAPERS.md): the ``finished`` summary's
``metering`` carries the dialogue's rounds and questions, which the
session counts from its answer log, and the errors and resumes since the
session last came into memory.

Each connection is one :class:`asyncio.Protocol`: it splits the bytes
it receives into lines and writes each line's reply from the same
callback.  Backpressure is per connection: once the transport's write
buffer passes its high-water mark the connection handles no further
line and stops reading, keeping the lines it already holds, until the
buffer drains; so a client that stops reading stops being read (and
eventually TCP pushes back) instead of growing server memory.  Each
round's questions are encoded to JSON once, by the session
(:attr:`~repro.interactive.session.LearningSession.pending_json`), and
that text goes into the round reply and every re-send on a warm
reconnect.  Idle sessions are evicted from memory on a
timer — eviction is safe *because* the round-boundary snapshot is
already durable; a later message under the same session id
transparently resumes from the store.

A ``quit`` parks the session *warm*: it stays in memory, up to
:data:`WARM_SESSIONS` of them per server, least recently parked dropped
first, and a reconnect to this server reuses it as it is.  ``stats()``
counts every such reuse and every store rebuild in ``sessions_resumed``,
and the store rebuilds, which always replay the log, in
``sessions_replayed``.

One server per process serves a store, but a store file may be open in
two processes at once (DESIGN.md §2h).  Every server message carries
``"worker"``, the server's id, so a client can tell which server
answered.  While a session is in memory, live or parked warm, the
server *owns* its store row under a claim token, so nobody else writes
the row and the warm session stays what the row holds.  Every path that
takes a session out of memory (idle eviction, a full warm table, a
fault, clean shutdown) releases the claim, and a store rebuild in
:meth:`RoundServer._require_session` must claim first — a session in
memory on another running server is a recoverable ``{"type": "error"}``,
one whose server died is stolen and resumed.
"""

from __future__ import annotations

import asyncio
import json
import logging
import sqlite3
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.serialize import query_to_dict
from repro.core.tuples import MAX_VARIABLES
from repro.interactive.session import LearningSession
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.protocol.core import Finished, ProtocolError, Round
from repro.protocol.wire import decode_answers, payload_to_dict
from repro.server.store import (
    ACTIVE,
    FINISHED,
    SessionStore,
    StoredSession,
    owner_token,
)

__all__ = ["LEARNERS", "RoundServer"]

_log = logging.getLogger(__name__)

#: Registry of wire-addressable learners: name → class taking an oracle.
LEARNERS: Mapping[str, Callable[..., Any]] = {
    "qhorn1": Qhorn1Learner,
    "role-preserving": RolePreservingLearner,
}

DEFAULT_LEARNER = "qhorn1"

#: Parked sessions one server keeps warm for a reconnect to it.
#: Past this many, the least recently parked one drops and is released
#: (and replays if it ever comes back).  One parked session holds about
#: 4-20 KiB.
WARM_SESSIONS = 1024

#: Longest inbound line in bytes.  A longer one gets an error reply and
#: the connection closes (the rest of the line cannot be resynchronised).
MAX_LINE_BYTES = 1 << 16


def check_limits(idle_timeout: float | None) -> None:
    """Reject an idle timeout that would switch a safeguard off silently:
    one of 0 or less evicts every session on the shortest sweep."""
    if idle_timeout is not None and not idle_timeout > 0:
        raise ValueError(
            f"idle_timeout must be positive (or None), got {idle_timeout}"
        )


def round_to_dict(round_: Round, index: int) -> dict[str, Any]:
    """The wire form of one round (membership or expression questions),
    before session framing.  The server writes the same message as text
    (:meth:`RoundServer._round_line`) around the session's encoded
    questions."""
    return {
        "type": "round",
        "index": index,
        "questions": [payload_to_dict(q) for q in round_.questions],
    }


def _line(message: dict[str, Any]) -> str:
    """One wire message as a line of JSON."""
    return json.dumps(message) + "\n"


def finished_to_dict(session: LearningSession) -> dict[str, Any]:
    """The wire form of the terminal summary, before session framing and
    metering."""
    result = session.result
    return {
        "type": "finished",
        "query": result.query.shorthand(),
        "query_json": query_to_dict(result.query),
        "questions": result.questions_asked,
        "rounds": session.rounds,
        "restarts": result.restarts,
    }


def _now() -> float:
    """The event loop clock (monotonic), usable from sync test code."""
    try:
        return asyncio.get_running_loop().time()
    except RuntimeError:
        return time.monotonic()


@dataclass
class _LiveSession:
    """One in-memory dialogue: the session plus its server bookkeeping.

    The session counts the dialogue's rounds and questions (its log fixes
    both); ``errors`` and ``resumes`` count since it last came into
    memory."""

    session_id: str
    learner: str
    session: LearningSession
    errors: int = 0
    resumes: int = 0
    last_used: float = 0.0


class _Connection(asyncio.Protocol):
    """One wire connection: splits the bytes it receives into lines and
    writes each line's reply from the same callback.

    A TCP connection reads and writes one transport.  A stdio connection
    reads the stdin pipe and writes ``sink``, the stdout pipe, whose flow
    control and loss :class:`_PipeSink` passes on.  Framing is that of
    :meth:`asyncio.StreamReader.readline` with a limit of
    :data:`MAX_LINE_BYTES`: a line (the bytes before ``\\n``, or before
    EOF for the last one) longer than the limit, or an unterminated
    buffer past it, gets one counted error and the connection closes.

    While the sink is past its high-water mark the connection answers no
    line and reads nothing; the lines it holds wait in ``buffer`` and are
    answered in order once the sink drains.  ``closed`` resolves when the
    sink is gone.
    """

    def __init__(self, server: "RoundServer") -> None:
        self.server = server
        self.source: asyncio.ReadTransport | None = None
        self.sink: asyncio.WriteTransport | None = None
        self.buffer = bytearray()
        self.paused = False
        self.eof = False
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.source = transport
        if self.sink is None:
            self.sink = transport
        self.server._open_connections.add(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        # Unless paused, the buffer held no whole line before ``data``.
        if not self.paused and (
            b"\n" in data or len(self.buffer) > MAX_LINE_BYTES
        ):
            self._handle_lines()

    def eof_received(self) -> bool:
        self.eof = True
        self._handle_lines()
        return True  # _handle_lines closes once the last line is answered

    def connection_lost(self, exc: Exception | None) -> None:
        if self.sink is self.source:
            self._lost()
        else:  # the stdin pipe ended: answer what it sent, then close
            self.eof_received()

    def pause_writing(self) -> None:
        self.paused = True
        self.source.pause_reading()

    def resume_writing(self) -> None:
        # Called from inside the transport's write callback, which must
        # not see its transport closed under it: answer the held lines on
        # the next loop pass.
        asyncio.get_running_loop().call_soon(self._resume)

    def _resume(self) -> None:
        self.paused = False
        self._handle_lines()
        if not self.paused and not self.source.is_closing():
            self.source.resume_reading()

    def _handle_lines(self) -> None:
        """Answer the whole lines held, in order, until the sink pauses or
        closes; then refuse an unterminated buffer past the limit, or at
        EOF answer the last line and close."""
        buffer, sink = self.buffer, self.sink
        start = 0
        while not self.paused and not sink.is_closing():
            end = buffer.find(b"\n", start)
            if end < 0:
                break
            if end - start > MAX_LINE_BYTES:
                self._refuse()
                return
            self._answer(buffer[start:end])
            start = end + 1
        del buffer[:start]
        if self.paused or sink.is_closing():
            return
        if len(buffer) > MAX_LINE_BYTES:
            self._refuse()
        elif self.eof:
            self._answer(buffer)
            buffer.clear()
            sink.close()

    def _answer(self, line: bytearray) -> None:
        text = line.strip().decode("utf-8", errors="replace")
        if text:
            self.sink.write(self.server._handle_line(text).encode())

    def _refuse(self) -> None:
        """Answer an overlong line with one error, then close: the rest of
        the line cannot be resynchronised."""
        error = self.server._error(
            f"line longer than {MAX_LINE_BYTES} bytes; closing the connection"
        )
        self.buffer.clear()
        self.sink.write(error.encode())
        self.close()

    def close(self) -> None:
        """Close both directions; the sink writes what it holds first."""
        for transport in (self.source, self.sink):
            if transport is not None:
                transport.close()

    def _lost(self) -> None:
        self.server._open_connections.discard(self)
        if self.source is not None:
            self.source.close()
        if not self.closed.done():
            self.closed.set_result(None)


class _PipeSink(asyncio.Protocol):
    """The stdout pipe of a stdio connection: passes its flow control and
    its loss on to the connection."""

    def __init__(self, connection: _Connection) -> None:
        self.connection = connection

    def pause_writing(self) -> None:
        self.connection.pause_writing()

    def resume_writing(self) -> None:
        self.connection.resume_writing()

    def connection_lost(self, exc: Exception | None) -> None:
        self.connection._lost()


class RoundServer:
    """Asyncio server multiplexing learning dialogues in one event loop.

    Parameters
    ----------
    store:
        Snapshot persistence; the caller owns its lifecycle.
    learners:
        Wire-addressable learner registry (default :data:`LEARNERS`).
    idle_timeout:
        Seconds of inactivity after which a live session is evicted from
        memory (its snapshot stays parked in the store).  ``None``
        disables the background sweep; :meth:`evict_idle` still works.
    worker_id:
        This server's name, stamped on every wire message.  Defaults to
        a fresh short id.  The session-ownership claim token derives
        from it plus the pid, so a server must be constructed in the
        process that runs it.

    Construction raises ``ValueError`` on an idle timeout
    :func:`check_limits` rejects.  Replies are written from the callback
    that received their line: a connection whose client stops reading
    stops being read once its transport is past the high-water mark.
    """

    def __init__(
        self,
        store: SessionStore,
        learners: Mapping[str, Callable[..., Any]] = LEARNERS,
        idle_timeout: float | None = None,
        worker_id: str | None = None,
    ) -> None:
        check_limits(idle_timeout)
        self.store = store
        self.learners = dict(learners)
        self.idle_timeout = idle_timeout
        self.worker_id = worker_id or uuid.uuid4().hex[:8]
        self._worker_json = json.dumps(self.worker_id)
        self._claim_token = owner_token(self.worker_id)
        self._sessions: dict[str, _LiveSession] = {}
        # Parked sessions kept warm by quit, oldest first, still claimed.
        self._warm: OrderedDict[str, _LiveSession] = OrderedDict()
        self._server: asyncio.AbstractServer | None = None
        self._evictor: asyncio.Task | None = None
        self._open_connections: set[_Connection] = set()
        # Server-level counters (surfaced by stats()).
        self.sessions_opened = 0
        self.sessions_resumed = 0
        self.sessions_replayed = 0
        self.sessions_finished = 0
        self.evictions = 0
        self.wire_errors = 0
        self.claims_rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Bind and serve; ``port=0`` picks an ephemeral port (see
        :meth:`port`).  Returns the underlying asyncio server."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
        )
        if self.idle_timeout is not None:
            self._evictor = asyncio.ensure_future(self._evict_loop())
        return self._server

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_stdio(self, stdin, stdout) -> None:
        """Serve one connection over ``stdin``/``stdout`` (pipes, sockets
        or a terminal; ``repro serve --stdio``): the TCP wire, line limit
        and backpressure included, without the idle evictor.  Returns
        once the client has closed ``stdin`` and every reply is written;
        the caller still owns :meth:`close`."""
        loop = asyncio.get_running_loop()
        connection = _Connection(self)
        # The sink comes first, so the first line has somewhere to go.
        connection.sink, _ = await loop.connect_write_pipe(
            lambda: _PipeSink(connection), stdout
        )
        try:
            await loop.connect_read_pipe(lambda: connection, stdin)
            await connection.closed
        finally:
            connection.close()

    async def close(self) -> None:
        """Stop accepting, drop connections, keep every session parked
        in the store (that is the durability story, not a data loss).

        Clean shutdown is the ownership handoff: every live and warm
        session's claim is released, where the store lets us, so the
        next server on the store may rebuild it.
        """
        if self._evictor is not None:
            self._evictor.cancel()
            await asyncio.gather(self._evictor, return_exceptions=True)
            self._evictor = None
        connections = list(self._open_connections)
        for connection in connections:
            connection.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(*(c.closed for c in connections))
        for session_id in (*self._sessions, *self._warm):
            self._release(session_id)
        self._sessions.clear()
        self._warm.clear()

    def stats(self) -> dict[str, int]:
        return {
            "live_sessions": len(self._sessions),
            "warm_sessions": len(self._warm),
            "sessions_opened": self.sessions_opened,
            "sessions_resumed": self.sessions_resumed,
            "sessions_replayed": self.sessions_replayed,
            "sessions_finished": self.sessions_finished,
            "evictions": self.evictions,
            "wire_errors": self.wire_errors,
            "claims_rejected": self.claims_rejected,
        }

    # ------------------------------------------------------------------
    # Idle eviction
    # ------------------------------------------------------------------
    def evict_idle(self, max_idle: float) -> int:
        """Drop live sessions idle for ``max_idle`` seconds or more.

        Safe at any time: the round-boundary snapshot in the store is
        the authoritative state, so eviction only frees memory — and
        releases the ownership claim, so another server on the store may
        pick the session back up.  Warm parked sessions idle as long are
        dropped and released too, uncounted.  Returns the number of live
        sessions evicted."""
        now = _now()
        live_before = len(self._sessions)
        for table in (self._sessions, self._warm):
            for session_id, live in list(table.items()):
                if now - live.last_used >= max_idle:
                    del table[session_id]
                    self._release(session_id)
        evicted = live_before - len(self._sessions)
        self.evictions += evicted
        return evicted

    async def _evict_loop(self) -> None:
        interval = max(self.idle_timeout / 2, 0.01)
        while True:
            await asyncio.sleep(interval)
            self.evict_idle(self.idle_timeout)

    # ------------------------------------------------------------------
    # Message dispatch (synchronous — stepping a learner is CPU work)
    # ------------------------------------------------------------------
    def _error(self, message: str, session_id: str | None = None) -> str:
        """A counted error reply line."""
        self.wire_errors += 1
        out: dict[str, Any] = {"type": "error", "message": message}
        if session_id is not None:
            out["session"] = session_id
        return _line(out)

    def _handle_line(self, text: str) -> str:
        """The reply line (JSON plus ``\\n``) to one inbound line."""
        try:
            message = json.loads(text)
        except json.JSONDecodeError:
            return self._error("expected one JSON object per line")
        if not isinstance(message, dict):
            return self._error("expected a JSON object")
        kind = message.get("type")
        session_id = message.get("session")
        if session_id is not None and not isinstance(session_id, str):
            return self._error('"session" must be a string id')
        try:
            if kind == "open":
                return self._handle_open(message)
            if kind == "reconnect":
                return self._handle_reconnect(session_id)
            if kind == "answers":
                return self._handle_answers(session_id, message)
            if kind == "snapshot":
                return self._handle_snapshot(session_id)
            if kind == "quit":
                return self._handle_quit(session_id)
        except ProtocolError as error:
            live = self._sessions.get(session_id or "")
            if live is not None:
                live.errors += 1
            return self._error(str(error), session_id)
        except sqlite3.Error as error:
            # Nothing live ran ahead of the store (see _persist): the
            # next message rebuilds the session from its last durable
            # round.
            return self._error(f"session store failed: {error}", session_id)
        except Exception as error:
            # Any other fault may have left the live session half-stepped:
            # forget it and its claim, so the next message replays it from
            # its last durable round.
            _log.exception("unexpected fault handling a %r message", kind)
            if session_id is not None:
                self._warm.pop(session_id, None)
                self._sessions.pop(session_id, None)
                self._release(session_id)
            return self._error(
                f"server failed on {kind!r}: {type(error).__name__}: {error}",
                session_id,
            )
        return self._error(f"unknown type {kind!r}", session_id)

    def _handle_open(self, message: dict) -> str:
        n = message.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            return self._error('"open" needs a positive integer "n"')
        if n > MAX_VARIABLES:
            return self._error(
                f'"open" over n={n} variables; membership questions hold '
                f"1..{MAX_VARIABLES}"
            )
        learner = message.get("learner", DEFAULT_LEARNER)
        # A non-string learner (a JSON list or object) is unhashable:
        # answer it like any other unknown name.
        learner_cls = (
            self.learners.get(learner) if isinstance(learner, str) else None
        )
        if learner_cls is None:
            known = ", ".join(sorted(self.learners))
            return self._error(f"unknown learner {learner!r} (known: {known})")
        session_id = uuid.uuid4().hex[:12]
        session = LearningSession(
            lambda oracle: learner_cls(oracle), n=n
        )
        live = _LiveSession(session_id, learner, session)
        event = session.start()
        self._sessions[session_id] = live
        self.sessions_opened += 1
        return self._emit_event(live, event, fresh_round=True)

    def _handle_reconnect(self, session_id: str | None) -> str:
        live = self._require_session(session_id, "reconnect")
        event = live.session.step()
        return self._emit_event(live, event, fresh_round=False)

    def _handle_answers(self, session_id: str | None, message: dict) -> str:
        live = self._require_session(session_id, "answers")
        answers = decode_answers(message)
        event = live.session.feed(answers)
        return self._emit_event(live, event, fresh_round=True)

    def _handle_snapshot(self, session_id: str | None) -> str:
        live = self._require_session(session_id, "snapshot")
        self._touch(live)
        return _line(
            {
                "type": "snapshot",
                "session": live.session_id,
                "snapshot": live.session.snapshot().to_dict(),
            }
        )

    def _handle_quit(self, session_id: str | None) -> str:
        if session_id is None:
            raise ProtocolError('"quit" needs a "session" id')
        # Quit parks rather than destroys: the snapshot stays in the
        # store, so the same id can reconnect later.  The session stays
        # warm here and keeps its claim, so nobody else writes its row
        # and a reconnect to this server reuses it without the store,
        # until it leaves memory (overflow, eviction, a fault, close()),
        # which releases the claim.
        live = self._sessions.pop(session_id, None)
        if live is not None:
            self._touch(live)
            self._warm[session_id] = live
            if len(self._warm) > WARM_SESSIONS:
                self._release(self._warm.popitem(last=False)[0])
        return _line({"type": "closed", "session": session_id})

    # ------------------------------------------------------------------
    # Session state helpers
    # ------------------------------------------------------------------
    def _require_session(
        self, session_id: str | None, verb: str
    ) -> _LiveSession:
        """The live session for ``session_id``: in memory, live or parked
        warm here, or rebuilt from the store (eviction, a full warm
        table or a past server restart) by load, claim and replay."""
        if session_id is None:
            raise ProtocolError(f'"{verb}" needs a "session" id')
        live = self._sessions.get(session_id)
        if live is not None:
            return live
        live = self._warm.pop(session_id, None)
        if live is not None:
            # Still claimed by this server: the row is what it last saved.
            return self._resumed(live)
        record = self.store.load(session_id)
        if record is None:
            raise ProtocolError(f"unknown session {session_id!r}")
        if record.finished:
            raise ProtocolError(
                f"session {session_id!r} already finished"
            )
        # Ownership handoff (§2h): rebuilding from the store claims the
        # row first.  A released session claims cleanly; a session still
        # in memory on another *running* server is rejected (until that
        # server evicts it, drops it from a full warm table or shuts
        # down); one whose server died is stolen — that is the crash
        # story.
        if not self.store.claim(session_id, self._claim_token):
            self.claims_rejected += 1
            raise ProtocolError(
                f"session {session_id!r} is live on another worker "
                "(wait for its eviction there, or for that server to shut down)"
            )
        learner_cls = self.learners.get(record.learner)
        if learner_cls is None:
            self.store.release(session_id, self._claim_token)
            raise ProtocolError(
                f"session {session_id!r} needs unknown learner "
                f"{record.learner!r}"
            )
        session = LearningSession(
            lambda oracle: learner_cls(oracle), n=record.n
        )
        try:
            session.resume(record.snapshot)
        except Exception:
            self.store.release(session_id, self._claim_token)
            raise
        self.sessions_replayed += 1
        return self._resumed(_LiveSession(session_id, record.learner, session))

    def _resumed(self, live: _LiveSession) -> _LiveSession:
        """Make a warm or rebuilt session live again.  Its rounds and
        questions are the whole dialogue's; errors and resumes start
        again here."""
        live.errors, live.resumes = 0, 1
        self._sessions[live.session_id] = live
        self.sessions_resumed += 1
        return live

    def _touch(self, live: _LiveSession) -> None:
        live.last_used = _now()

    def _persist(self, live: _LiveSession, status: str) -> None:
        """Round-boundary durability: park the replay log write-through.

        Active rows carry this server's claim token (the session is live
        here); finished rows carry none — there is nothing left to own.
        A failed write drops the live session, which is now a round
        ahead of its row, and releases the claim where it can: memory
        never runs ahead of the store.
        """
        record = StoredSession(
            session_id=live.session_id,
            learner=live.learner,
            n=live.session.n,
            status=status,
            rounds=live.session.rounds,
            questions=len(live.session.transcript),
            snapshot=live.session.snapshot(),
            owner=self._claim_token if status == ACTIVE else None,
        )
        try:
            self.store.save(record)
        except Exception:
            self._sessions.pop(live.session_id, None)
            self._release(live.session_id)
            raise

    def _release(self, session_id: str) -> None:
        """Release our claim on a session that left memory, where the
        store lets us."""
        try:
            self.store.release(session_id, self._claim_token)
        except sqlite3.Error:
            pass  # the claim is ours; our next rebuild reclaims it

    def _emit_event(
        self, live: _LiveSession, event: Round | Finished, fresh_round: bool
    ) -> str:
        """Turn a session event into its reply line, persisting at the
        round boundary."""
        self._touch(live)
        if isinstance(event, Finished):
            self._persist(live, FINISHED)
            self.sessions_finished += 1
            del self._sessions[live.session_id]
            summary = finished_to_dict(live.session)
            summary["session"] = live.session_id
            summary["worker"] = self.worker_id
            summary["metering"] = {
                "rounds": live.session.rounds,
                "questions": len(live.session.transcript),
                "errors": live.errors,
                "resumes": live.resumes,
            }
            return _line(summary)
        if fresh_round:
            self._persist(live, ACTIVE)
        return self._round_line(live)

    def _round_line(self, live: _LiveSession) -> str:
        """The round reply for ``live``'s pending round: the text of
        ``json.dumps`` of :func:`round_to_dict` framed with ``session``
        and ``worker``, written around the session's encoded questions."""
        return (
            f'{{"type": "round", "index": {live.session.rounds - 1}, '
            f'"questions": {live.session.pending_json}, '
            f'"session": {json.dumps(live.session_id)}, '
            f'"worker": {self._worker_json}}}\n'
        )
