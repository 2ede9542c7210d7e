"""The claims between two servers sharing one store file (§2h).

Two in-process ``RoundServer`` instances, each with its own
``SessionStore`` connection to one file, on one event loop: a session
live on one server is rejected by the other until it is parked, a clean
close or an eviction releases the claim, and a server's warm parked
session is reused only while the row still holds what that server
wrote.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random

import pytest

from repro.core.generators import random_qhorn1
from repro.interactive import LearningSession
from repro.learning import Qhorn1Learner
from repro.oracle import QueryOracle
from repro.protocol.wire import payload_from_dict
from repro.server import RoundServer, SessionStore
from repro.server.loadgen import UserResult


def run(coro):
    return asyncio.run(coro)


def sync_reference(intent):
    """The synchronous in-process path the wire must be bit-identical
    to."""
    session = LearningSession(
        lambda oracle: Qhorn1Learner(oracle), oracle=QueryOracle(intent)
    )
    return session.run()


def assert_bit_identical(user):
    reference = sync_reference(user.intent)
    questions = [q for qs, _ in user.transcript for q in qs]
    answers = [a for _, ans in user.transcript for a in ans]
    assert questions == [e.question for e in reference.transcript]
    assert answers == reference.transcript.responses()
    assert user.learned == reference.query.shorthand()
    return reference


@contextlib.asynccontextmanager
async def two_servers(store_path):
    """Servers "wa" and "wb" over one store file, one connection each."""
    stores = [SessionStore(store_path), SessionStore(store_path)]
    servers = [
        RoundServer(store, worker_id=name)
        for store, name in zip(stores, ("wa", "wb"))
    ]
    connections = []
    try:
        for server in servers:
            await server.start()
            connections.append(
                await asyncio.open_connection("127.0.0.1", server.port)
            )
        yield servers, connections
    finally:
        for _, writer in connections:
            writer.close()
        for server in servers:
            await server.close()
        for store in stores:
            store.close()


async def ask(connection, **message):
    """Send one message and return the one reply."""
    reader, writer = connection
    writer.write((json.dumps(message) + "\n").encode())
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), 30))


async def answer_round(connection, message, user):
    """Answer ``message``'s round as ``user`` and return the reply."""
    truth = QueryOracle(user.intent)
    questions = [payload_from_dict(d) for d in message["questions"]]
    answers = truth.ask_many(questions)
    user.transcript.append((questions, answers))
    reply = await ask(
        connection, type="answers", session=user.session_id, answers=answers
    )
    if reply["type"] == "finished":
        user.learned = reply["query"]
    return reply


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "sessions.sqlite"


class TestOwnershipHandoff:
    """Two RoundServers on one store file: the claim semantics, pinned
    deterministically on one event loop."""

    def test_live_session_on_another_worker_is_rejected(self, store_path):
        async def main():
            store_a = SessionStore(store_path)
            store_b = SessionStore(store_path)
            a = RoundServer(store_a, worker_id="wa")
            b = RoundServer(store_b, worker_id="wb")
            await a.start()
            await b.start()
            reader_a, writer_a = await asyncio.open_connection(
                "127.0.0.1", a.port
            )
            writer_a.write(b'{"type": "open", "n": 3}\n')
            await writer_a.drain()
            first = json.loads(await reader_a.readline())
            sid = first["session"]
            assert first["worker"] == "wa"

            # Concurrent claim: the session is live on A, so B must
            # reject the reconnect with a recoverable error...
            reader_b, writer_b = await asyncio.open_connection(
                "127.0.0.1", b.port
            )
            writer_b.write(
                json.dumps({"type": "reconnect", "session": sid}).encode()
                + b"\n"
            )
            await writer_b.drain()
            rejected = json.loads(await reader_b.readline())

            # ...until A parks it (quit releases the claim), after which
            # B rebuilds it from the store and serves the same round.
            writer_a.write(
                json.dumps({"type": "quit", "session": sid}).encode()
                + b"\n"
            )
            await writer_a.drain()
            closed = json.loads(await reader_a.readline())
            writer_b.write(
                json.dumps({"type": "reconnect", "session": sid}).encode()
                + b"\n"
            )
            await writer_b.drain()
            resumed = json.loads(await reader_b.readline())

            for writer in (writer_a, writer_b):
                writer.close()
            await a.close()
            await b.close()
            stats_b = b.stats()
            store_a.close()
            store_b.close()
            return first, rejected, closed, resumed, stats_b

        first, rejected, closed, resumed, stats_b = run(main())
        assert rejected["type"] == "error"
        assert "another worker" in rejected["message"]
        assert closed["type"] == "closed"
        assert resumed["type"] == "round"
        assert resumed["worker"] == "wb"
        assert resumed["questions"] == first["questions"]
        assert resumed["index"] == first["index"]
        assert stats_b["claims_rejected"] == 1
        assert stats_b["sessions_resumed"] == stats_b["sessions_replayed"] == 1

    def test_clean_close_releases_every_claim(self, store_path):
        async def main():
            store = SessionStore(store_path)
            server = RoundServer(store, worker_id="wa")
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"type": "open", "n": 3}\n')
            await writer.drain()
            first = json.loads(await reader.readline())
            sid = first["session"]
            assert store.owner_of(sid) is not None
            writer.close()
            await server.close()
            owner_after = store.owner_of(sid)
            store.close()
            return owner_after

        assert run(main()) is None

    def test_eviction_releases_the_claim(self, store_path):
        async def main():
            store = SessionStore(store_path)
            server = RoundServer(store, worker_id="wa")
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"type": "open", "n": 3}\n')
            await writer.drain()
            first = json.loads(await reader.readline())
            sid = first["session"]
            owned_before = store.owner_of(sid)
            assert server.evict_idle(0.0) == 1
            owner_after = store.owner_of(sid)
            writer.close()
            await server.close()
            store.close()
            return owned_before, owner_after

        owned_before, owner_after = run(main())
        assert owned_before is not None
        assert owner_after is None


class TestWarmParkedSessions:
    """A server's warm parked session is reused only while the store row
    still matches it; another server's progress forces a replay."""

    def test_stale_warm_session_replays_the_other_workers_round(
        self, store_path
    ):
        intent = random_qhorn1(3, random.Random(31))

        async def main():
            async with two_servers(store_path) as (servers, (on_a, on_b)):
                first = await ask(on_a, type="open", n=3)
                user = UserResult(session_id=first["session"], intent=intent)
                sid = user.session_id
                closed = await ask(on_a, type="quit", session=sid)
                assert closed["type"] == "closed"
                # B advances the row one round, then parks it.
                resumed = await ask(on_b, type="reconnect", session=sid)
                second = await answer_round(on_b, resumed, user)
                await ask(on_b, type="quit", session=sid)
                # A's warm session is a round behind the row: replay.
                again = await ask(on_a, type="reconnect", session=sid)
                message = again
                while message["type"] == "round":
                    message = await answer_round(on_a, message, user)
            return first, resumed, second, again, user, servers

        first, resumed, second, again, user, servers = run(main())
        assert resumed["questions"] == first["questions"]
        assert second["type"] == "round" and second["worker"] == "wb"
        assert again["worker"] == "wa"
        assert again["index"] == second["index"] == 1
        assert again["questions"] == second["questions"]
        assert_bit_identical(user)
        a, b = (server.stats() for server in servers)
        assert a["sessions_resumed"] == a["sessions_replayed"] == 1
        assert b["sessions_resumed"] == b["sessions_replayed"] == 1

    def test_reconnect_to_a_session_live_elsewhere_drops_the_warm_entry(
        self, store_path
    ):
        intent = random_qhorn1(3, random.Random(31))

        async def main():
            seen = {}
            async with two_servers(store_path) as (servers, (on_a, on_b)):
                a = servers[0]
                first = await ask(on_a, type="open", n=3)
                user = UserResult(session_id=first["session"], intent=intent)
                sid = user.session_id
                await ask(on_a, type="quit", session=sid)
                seen["parked"] = a.stats()
                await ask(on_b, type="reconnect", session=sid)
                seen["rejected"] = await ask(
                    on_a, type="reconnect", session=sid
                )
                seen["after_rejection"] = a.stats()
                # B parks it unchanged: the row matches what A parked,
                # but A dropped its entry, so A replays.
                await ask(on_b, type="quit", session=sid)
                again = await ask(on_a, type="reconnect", session=sid)
                message = again
                while message["type"] == "round":
                    message = await answer_round(on_a, message, user)
                seen["finished"] = a.stats()
            return first, again, user, seen

        first, again, user, seen = run(main())
        assert seen["parked"]["warm_sessions"] == 1
        assert seen["rejected"]["type"] == "error"
        assert "another worker" in seen["rejected"]["message"]
        assert seen["after_rejection"]["warm_sessions"] == 0
        assert again["questions"] == first["questions"]
        assert again["index"] == first["index"] == 0
        assert_bit_identical(user)
        a = seen["finished"]
        assert a["claims_rejected"] == 1
        assert a["sessions_resumed"] == a["sessions_replayed"] == 1

    def test_reconnect_to_a_session_finished_elsewhere_drops_the_warm_entry(
        self, store_path
    ):
        intent = random_qhorn1(3, random.Random(31))

        async def main():
            async with two_servers(store_path) as (servers, (on_a, on_b)):
                a = servers[0]
                first = await ask(on_a, type="open", n=3)
                user = UserResult(session_id=first["session"], intent=intent)
                sid = user.session_id
                await ask(on_a, type="quit", session=sid)
                message = await ask(on_b, type="reconnect", session=sid)
                while message["type"] == "round":
                    message = await answer_round(on_b, message, user)
                rejected = await ask(on_a, type="reconnect", session=sid)
                return rejected, user, a.stats()

        rejected, user, a = run(main())
        assert_bit_identical(user)
        assert rejected["type"] == "error"
        assert "already finished" in rejected["message"]
        assert a["warm_sessions"] == 0
        assert a["sessions_resumed"] == 0
