"""The claims between two servers sharing one store file (§2h).

Two in-process ``RoundServer`` instances, each with its own
``SessionStore`` connection to one file, on one event loop: a session
in memory on one server, live or parked warm, is rejected by the other
until an eviction or a clean close releases the claim.
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
        """B is refused a session live on A and still refused once A
        parks it; it resumes the session by replay once A evicts it (the
        first one) or closes (the second)."""
        intents = [random_qhorn1(3, random.Random(seed)) for seed in (31, 32)]

        async def main():
            refused, users = [], []
            async with two_servers(store_path) as (servers, (on_a, on_b)):
                a, b = servers
                for intent, release in zip(intents, ("evict", "close")):
                    first = await ask(on_a, type="open", n=3)
                    assert first["worker"] == "wa"
                    sid = first["session"]
                    refused.append(await ask(on_b, type="reconnect", session=sid))
                    closed = await ask(on_a, type="quit", session=sid)
                    assert closed["type"] == "closed"
                    refused.append(await ask(on_b, type="reconnect", session=sid))
                    if release == "evict":
                        assert a.evict_idle(0.0) == 0  # warm: uncounted
                    else:
                        await a.close()
                    message = await ask(on_b, type="reconnect", session=sid)
                    assert message["worker"] == "wb"
                    assert message["index"] == first["index"] == 0
                    assert message["questions"] == first["questions"]
                    user = UserResult(session_id=sid, intent=intent)
                    while message["type"] == "round":
                        message = await answer_round(on_b, message, user)
                    users.append(user)
                return refused, users, b.stats()

        refused, users, stats_b = run(main())
        for rejected in refused:
            assert rejected["type"] == "error"
            assert "another worker" in rejected["message"]
        for user in users:
            assert_bit_identical(user)
        assert stats_b["claims_rejected"] == len(refused) == 4
        assert stats_b["sessions_resumed"] == stats_b["sessions_replayed"] == 2

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
