"""Integration tests for the multi-process serving tier (§2h).

Real forked worker processes, real sockets, one shared file-backed
store: kernel-balanced ``SO_REUSEPORT`` accept (required: no fallback),
worker-hopping reconnects through the ownership handoff,
concurrent-claim rejection, and the kill-one-worker durability variant
of the E25b restart story.
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
from repro.server import RoundServer, ServerFleet, SessionStore
from repro.server.loadgen import UserResult, random_intents, run_load


def run(coro):
    return asyncio.run(coro)


def sync_reference(intent):
    """The synchronous in-process path the wire must be bit-identical
    to, fleet or no fleet."""
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
async def two_workers(store_path):
    """Workers "wa" and "wb" over one store file, one connection each."""
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


class TestServerFleet:
    def test_memory_store_rejected(self):
        with pytest.raises(ValueError, match="file-backed"):
            ServerFleet(":memory:", workers=2)

    def test_hopping_dialogues_finish_bit_identical(self, store_path):
        """The tentpole end-to-end: dialogues park-and-reconnect every
        round across a 2-worker fleet; every one finishes, every
        transcript is bit-identical to the synchronous path, and both
        workers demonstrably served (with ~60 kernel-balanced connects,
        one worker seeing none has probability ~2^-59)."""
        intents = random_intents(12, 3, seed=2600)
        with ServerFleet(store_path, workers=2) as fleet:
            report = run(
                run_load(
                    fleet.host,
                    fleet.port,
                    intents,
                    seed=2600,
                    hop_every=1,
                )
            )
            stats = fleet.stop()
        assert all(user.finished for user in report.users)
        for user in report.users:
            reference = assert_bit_identical(user)
            assert user.questions == reference.questions_asked
        assert report.workers_seen == {"w0", "w1"}
        assert report.total_hops > 0
        # Merged fleet counters account for every dialogue and resume.
        assert stats["workers"] == 2
        assert stats["sessions_finished"] == len(intents)
        assert stats["sessions_opened"] == len(intents)
        assert stats["sessions_resumed"] == report.total_hops
        # Same-worker reconnects reuse the warm parked session, hops to
        # the other worker replay: with ~60 kernel-balanced reconnects
        # both happen with overwhelming probability.
        assert 0 < stats["sessions_replayed"] < stats["sessions_resumed"]
        assert stats["claims_rejected"] == 0

    def test_double_start_rejected(self, store_path):
        fleet = ServerFleet(store_path, workers=1)
        fleet.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                fleet.start()
        finally:
            fleet.stop()

    def test_port_before_start_rejected(self, store_path):
        with pytest.raises(RuntimeError, match="not started"):
            ServerFleet(store_path, workers=1).port

    def test_missing_reuse_port_rejected_before_forking(
        self, store_path, monkeypatch
    ):
        import multiprocessing
        import socket

        monkeypatch.delattr(socket, "SO_REUSEPORT")
        before = multiprocessing.active_children()
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            ServerFleet(store_path, workers=2)
        assert multiprocessing.active_children() == before


class TestKillOneWorker:
    def test_parked_and_live_sessions_survive_a_killed_worker(
        self, store_path
    ):
        """The E25b variant for fleets: park some dialogues cleanly,
        abandon others live (no quit — their claims stay held), SIGKILL
        one worker, and resume *every* session on the survivors.  Parked
        sessions were released; the killed worker's live ones are stolen
        via the dead-pid check; stitched transcripts stay bit-identical
        and metering spans the kill."""
        parked_intents = random_intents(6, 3, seed=2602)
        live_intents = random_intents(4, 3, seed=2603)
        with ServerFleet(store_path, workers=2) as fleet:
            parked = run(
                run_load(
                    fleet.host,
                    fleet.port,
                    parked_intents,
                    seed=2602,
                    stop_after_rounds=1,
                )
            ).users
            # One-round dialogues can finish before parking; the rest
            # parked mid-session (quit → claim released).
            parked = [user for user in parked if not user.finished]
            assert parked
            # Abandoned dialogues: answer one round, then drop the
            # connection without quit — the serving worker keeps them
            # live in memory and keeps their store claims.
            abandoned = run(
                self._abandon_live(fleet.host, fleet.port, live_intents)
            )
            fleet.kill_worker(0)
            assert fleet.alive() == [1]

            survivors = run(
                run_load(
                    fleet.host,
                    fleet.port,
                    [user.intent for user in parked + abandoned],
                    seed=2604,
                    session_ids=[
                        user.session_id for user in parked + abandoned
                    ],
                )
            )
            for before, after in zip(parked + abandoned, survivors.users):
                assert after.finished
                stitched_user = after
                stitched_user.transcript = (
                    before.transcript + after.transcript
                )
                reference = assert_bit_identical(stitched_user)
                # Metering spans the kill: questions is a lifetime total.
                assert after.questions == reference.questions_asked
                assert after.workers == {"w1"}
            # Parked sessions were released by quit and rebuilt from the
            # store; their metering records the resume.
            for after in survivors.users[: len(parked)]:
                assert after.metering["resumes"] >= 1

    @staticmethod
    async def _abandon_live(host, port, intents):
        """Open dialogues, answer one round each, drop the connections
        without quitting — sessions stay live (and claimed) server-side."""
        from repro.protocol.wire import payload_from_dict
        from repro.server.loadgen import UserResult

        abandoned = []
        for intent in intents:
            truth = QueryOracle(intent)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                (
                    json.dumps(
                        {"type": "open", "n": intent.n, "learner": "qhorn1"}
                    )
                    + "\n"
                ).encode()
            )
            await writer.drain()
            message = json.loads(await reader.readline())
            assert message["type"] == "round"
            questions = [
                payload_from_dict(d) for d in message["questions"]
            ]
            answers = truth.ask_many(questions)
            writer.write(
                (
                    json.dumps(
                        {
                            "type": "answers",
                            "session": message["session"],
                            "answers": answers,
                        }
                    )
                    + "\n"
                ).encode()
            )
            await writer.drain()
            second = json.loads(await reader.readline())
            user = UserResult(
                session_id=message["session"], intent=intent
            )
            if second["type"] == "finished":
                user.learned = second["query"]
            else:
                user.transcript.append((questions, answers))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if not user.finished:
                abandoned.append(user)
        return abandoned


class TestOwnershipHandoff:
    """Two RoundServers on one store file — the fleet's claim semantics
    pinned without forking (deterministic, same event loop)."""

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
    """A worker's warm parked session is reused only while the store row
    still matches it; another worker's progress forces a replay."""

    def test_stale_warm_session_replays_the_other_workers_round(
        self, store_path
    ):
        intent = random_qhorn1(3, random.Random(31))

        async def main():
            async with two_workers(store_path) as (servers, (on_a, on_b)):
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
            async with two_workers(store_path) as (servers, (on_a, on_b)):
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
            async with two_workers(store_path) as (servers, (on_a, on_b)):
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
