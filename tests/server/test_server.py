"""Integration tests for the multi-session asyncio round server (§2f).

Every test runs a real :class:`~repro.server.RoundServer` on an
ephemeral localhost port inside one event loop and speaks the session-id
framed JSON wire over real sockets — the error paths, the multiplexing,
idle eviction, and the kill-server/restart/resume durability story.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
import socket
import sqlite3
import time

import pytest

from repro.core.generators import random_qhorn1
from repro.interactive import LearningSession, SessionSnapshot, SnapshotError
from repro.learning import Qhorn1Learner
from repro.oracle import QueryOracle
from repro.protocol import ProtocolError
from repro.protocol.wire import decode_answers, payload_from_dict
from repro.server import RoundServer, SessionStore, StoredSession
from repro.server import core as server_core
from repro.server.store import owner_token


class Client:
    """A minimal wire client: one JSON message per line, both ways."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send_raw(self, text: str):
        self.writer.write((text + "\n").encode())
        await self.writer.drain()

    async def send(self, **message):
        await self.send_raw(json.dumps(message))

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def sync_reference(intent, learner_cls=Qhorn1Learner):
    """The synchronous in-process path the wire must be bit-identical to."""
    session = LearningSession(
        lambda oracle: learner_cls(oracle), oracle=QueryOracle(intent)
    )
    return session.run()


def assert_bit_identical(finished, wire, intent):
    """A served dialogue's wire transcript and summary equal the
    synchronous path's."""
    reference = sync_reference(intent)
    assert finished["type"] == "finished", finished
    assert [q for q, _ in wire] == [e.question for e in reference.transcript]
    assert [a for _, a in wire] == reference.transcript.responses()
    assert finished["query"] == reference.query.shorthand()
    assert finished["questions"] == reference.questions_asked


def answer(message, oracle):
    """The (questions, answers) for one round message."""
    questions = [payload_from_dict(d) for d in message["questions"]]
    return questions, oracle.ask_many(questions)


async def answer_until_done(client, oracle, session_id=None, first=None):
    """Answer every round from ``oracle``; returns (finished_message,
    wire_transcript) where the transcript is [(question, answer), ...]."""
    transcript = []
    message = first if first is not None else await client.recv()
    while True:
        if message["type"] == "finished":
            return message, transcript
        assert message["type"] == "round", message
        # The whole wire shape of a round: no transport hints.
        assert set(message) == {"type", "session", "worker", "index", "questions"}
        session_id = message["session"]
        questions = [payload_from_dict(d) for d in message["questions"]]
        answers = oracle.ask_many(questions)
        transcript.extend(zip(questions, answers))
        await client.send(
            type="answers", session=session_id, answers=answers
        )
        message = await client.recv()


def run(coro):
    return asyncio.run(coro)


def handle_line(server, text):
    """The reply messages ``server`` writes for one inbound line."""
    return [json.loads(line) for line in server._handle_line(text).splitlines()]


class TestFullDialogue:
    def test_wire_transcript_bit_identical_to_sync_path(self):
        target = random_qhorn1(3, random.Random(7))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3, learner="qhorn1")
                finished, wire = await answer_until_done(
                    client, QueryOracle(target)
                )
                await client.close()
                await server.close()
                return finished, wire, server.stats()

        finished, wire, stats = run(main())
        reference = sync_reference(target)
        assert finished["query"] == reference.query.shorthand()
        assert finished["questions"] == reference.questions_asked
        assert [q for q, _ in wire] == [
            e.question for e in reference.transcript
        ]
        assert [a for _, a in wire] == reference.transcript.responses()
        metering = finished["metering"]
        assert metering["questions"] == reference.questions_asked
        assert metering["rounds"] == finished["rounds"] > 0
        assert metering["errors"] == 0 and metering["resumes"] == 0
        assert stats["sessions_finished"] == 1

    def test_two_sessions_multiplexed_on_one_connection(self):
        targets = [
            random_qhorn1(3, random.Random(21)),
            random_qhorn1(3, random.Random(22)),
        ]

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                oracles, pending, done = {}, {}, {}
                for target in targets:
                    await client.send(type="open", n=3, learner="qhorn1")
                    message = await client.recv()
                    oracles[message["session"]] = QueryOracle(target)
                    pending[message["session"]] = message
                # Interleave: answer one round of each session in turn.
                while pending:
                    for sid in list(pending):
                        message = pending.pop(sid)
                        if message["type"] == "finished":
                            done[sid] = message
                            continue
                        questions = [
                            payload_from_dict(d)
                            for d in message["questions"]
                        ]
                        answers = oracles[sid].ask_many(questions)
                        await client.send(
                            type="answers", session=sid, answers=answers
                        )
                        pending[sid] = await client.recv()
                await client.close()
                await server.close()
                return done

        done = run(main())
        assert len(done) == 2
        learned = sorted(m["query"] for m in done.values())
        expected = sorted(
            sync_reference(t).query.shorthand() for t in targets
        )
        assert learned == expected


class TestWireErrors:
    """Malformed clients get {"type": "error"} lines, never a dead server."""

    async def _serve_errors(self, lines_then_valid):
        target = random_qhorn1(3, random.Random(5))
        with SessionStore() as store:
            server = RoundServer(store)
            await server.start()
            client = await Client.connect(server.port)
            await client.send(type="open", n=3)
            first = await client.recv()
            sid = first["session"]
            errors = []
            for line in lines_then_valid:
                await client.send_raw(line.replace("SID", sid))
                reply = await client.recv()
                assert reply["type"] == "error", reply
                errors.append(reply["message"])
            # The session survived every malformed message: finish it.
            finished, _ = await answer_until_done(
                client, QueryOracle(target), first=first
            )
            assert server.wire_errors == len(errors)  # every one counted
            await client.close()
            await server.close()
            return errors, finished

    def test_malformed_payloads_are_recoverable(self):
        errors, finished = run(
            self._serve_errors(
                [
                    "not json at all",
                    '"just a string"',
                    '{"type": "mystery", "session": "SID"}',
                    '{"type": "answers", "session": "SID"}',
                    '{"type": "answers", "session": "SID", "answers": true}',
                    '{"type": "answers", "session": "SID", "answers": "yes"}',
                    '{"type": "answers", "session": "SID", '
                    '"answers": {"0": true}}',
                    '{"type": "answers", "session": "SID", "answers": [true]}',
                    '{"type": "answers", "session": "bogus", "answers": []}',
                    '{"type": "open", "n": 0}',
                    '{"type": "open", "n": true}',
                    '{"type": "open", "n": 3, "learner": "nope"}',
                    '{"type": "open", "n": 3, "learner": ["x"]}',
                    '{"type": "open", "n": 3, "learner": {"a": 1}}',
                    '{"type": "answers", "session": 7, "answers": []}',
                    '{"type": "quit"}',
                    '{"type": "reconnect", "session": "bogus"}',
                ]
            )
        )
        assert finished["type"] == "finished"
        assert len(errors) == 17
        for needle, message in zip(
            [
                "JSON",
                "JSON object",
                "unknown type",
                'no "answers" key',
                "must be a list",
                "must be a list",
                "must be a list",
                "questions",  # wrong answer count
                "unknown session",
                'positive integer "n"',
                'positive integer "n"',
                "unknown learner",
                "unknown learner",  # unhashable learner names
                "unknown learner",
                '"session" must be a string',
                '"quit" needs a "session"',
                "unknown session",
            ],
            errors,
        ):
            assert needle in message, (needle, message)

    def test_answers_must_be_json_booleans(self):
        """An answer that is not a JSON boolean is a counted error, not
        an answer read by its truthiness: the session stays at its
        round, and nothing is fed or saved."""
        with pytest.raises(ProtocolError, match="str at index 0"):
            decode_answers({"answers": ["false", "no", 0, None, 2]})
        target = random_qhorn1(3, random.Random(5))
        with SessionStore() as store:
            server = RoundServer(store)
            (first,) = handle_line(server, '{"type": "open", "n": 3}')
            sid = first["session"]
            size = len(first["questions"])
            for bad in (["false"] * size, [0] * size, [None] * size):
                (reply,) = handle_line(
                    server,
                    json.dumps({"type": "answers", "session": sid, "answers": bad}),
                )
                assert reply["type"] == "error", reply
                assert "list of booleans" in reply["message"]
            assert server.wire_errors == 3
            assert store.load(sid).snapshot.responses == []
            (again,) = handle_line(
                server, json.dumps({"type": "reconnect", "session": sid})
            )
            assert again == first
            oracle = QueryOracle(target)
            message, wire = first, []
            while message["type"] == "round":
                questions, answers = answer(message, oracle)
                wire.extend(zip(questions, answers))
                (message,) = handle_line(
                    server,
                    json.dumps(
                        {"type": "answers", "session": sid, "answers": answers}
                    ),
                )
        assert_bit_identical(message, wire, target)
        assert message["metering"]["errors"] == 3

    def test_too_wide_open_is_a_client_error(self, caplog):
        """An ``open`` past MAX_VARIABLES is refused before a learner is
        built: a counted error naming the range, with no fault logged."""
        with SessionStore() as store:
            server = RoundServer(store)
            with caplog.at_level(logging.ERROR):
                (reply,) = handle_line(server, '{"type": "open", "n": 257}')
            assert reply["type"] == "error", reply
            assert "1..256" in reply["message"]
            assert "server failed" not in reply["message"]
            assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
            assert server.wire_errors == 1
            assert server.stats()["live_sessions"] == 0
            (first,) = handle_line(server, '{"type": "open", "n": 256}')
            assert first["type"] == "round"

    def test_errors_are_metered_per_session(self):
        target = random_qhorn1(3, random.Random(5))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                await client.send(type="answers", session=sid, answers=[1])
                assert (await client.recv())["type"] == "error"
                finished, _ = await answer_until_done(
                    client, QueryOracle(target), first=first
                )
                await client.close()
                await server.close()
                return finished

        finished = run(main())
        assert finished["metering"]["errors"] == 1

    def test_oversized_line_gets_an_error_then_eof(self):
        """A line past MAX_LINE_BYTES is answered with one error naming
        the limit before the connection closes; the session it carried
        stays resumable from a second connection."""
        target = random_qhorn1(3, random.Random(5))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                await client.send(type="open", n=3, pad="x" * 70_000)
                error = await client.recv()
                eof = await asyncio.wait_for(client.reader.readline(), 30)
                await client.close()
                errors = server.stats()["wire_errors"]
                client = await Client.connect(server.port)
                finished, wire = await answer_until_done(
                    client, QueryOracle(target), first=first
                )
                await client.close()
                await server.close()
                return error, eof, errors, finished, wire

        error, eof, errors, finished, wire = run(main())
        assert error["type"] == "error"
        assert str(server_core.MAX_LINE_BYTES) in error["message"]
        assert eof == b""
        assert errors == 1
        assert_bit_identical(finished, wire, target)


class TestUnexpectedFaults:
    """Any other fault while handling a message becomes a counted error
    reply instead of a dropped connection; the live session is dropped
    with its claim, so the next message replays it from its last
    durable round."""

    def test_oversized_open_gets_a_counted_error(self):
        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=100_000)
                error = await client.recv()
                errors = server.wire_errors
                await client.send(type="open", n=3)
                first = await client.recv()
                await client.close()
                await server.close()
                return error, errors, first

        error, errors, first = run(main())
        assert error["type"] == "error"
        assert "100000" in error["message"]
        assert errors == 1
        assert first["type"] == "round"

    def test_fault_after_a_step_replays_from_the_store(
        self, monkeypatch, caplog
    ):
        """The learner steps, then the handler fails: memory is a round
        ahead of the store until the session is dropped.  Resending the
        same answers must continue exactly where the store left off."""
        target = random_qhorn1(3, random.Random(5))
        feed = LearningSession.feed
        calls = []

        def feed_then_fail_once(self, answers):
            event = feed(self, answers)
            calls.append(len(answers))
            if len(calls) == 2:
                raise RuntimeError("injected fault")
            return event

        monkeypatch.setattr(LearningSession, "feed", feed_then_fail_once)

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                oracle = QueryOracle(target)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                questions, answers = answer(first, oracle)
                await client.send(type="answers", session=sid, answers=answers)
                second = await client.recv()
                assert second["type"] == "round", second
                await client.send(
                    type="answers",
                    session=sid,
                    answers=answer(second, oracle)[1],
                )
                error = await client.recv()
                dropped = sid not in server._sessions
                owner = store.owner_of(sid)
                errors = server.wire_errors
                finished, wire = await answer_until_done(
                    client, oracle, first=second
                )
                replayed = server.sessions_replayed
                await client.close()
                await server.close()
                wire = list(zip(questions, answers)) + wire
                return error, dropped, owner, errors, finished, wire, replayed

        error, dropped, owner, errors, finished, wire, replayed = run(main())
        assert error["type"] == "error"
        assert "RuntimeError: injected fault" in error["message"]
        assert "Traceback" in caplog.text  # the operator gets the stack
        assert dropped and owner is None
        assert errors == 1
        assert replayed == 1
        assert_bit_identical(finished, wire, target)

    def test_failed_first_write_keeps_no_live_session(self):
        """An open whose first round-boundary write fails with any error
        leaves nothing live that the store does not hold."""

        class SaveRaises(SessionStore):
            def save(self, record):
                raise TypeError("unserialisable snapshot")

        with SaveRaises() as store:
            server = RoundServer(store)
            replies = handle_line(server, '{"type": "open", "n": 3}')
            assert [r["type"] for r in replies] == ["error"]
            assert "TypeError: unserialisable snapshot" in replies[0]["message"]
            assert server.stats()["live_sessions"] == 0
            assert server.wire_errors == 1


class TestStoreFailure:
    """A failed round-boundary write never leaves memory ahead of the
    store: the round is rolled back and the client told so."""

    class SaveFailsOnce(SessionStore):
        fail_next_save = False

        def save(self, record):
            if self.fail_next_save:
                self.fail_next_save = False
                raise sqlite3.OperationalError("database is locked")
            return super().save(record)

    def test_failed_save_rolls_the_round_back(self):
        target = random_qhorn1(3, random.Random(31))

        async def main():
            with self.SaveFailsOnce() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                oracle = QueryOracle(target)
                questions, answers = answer(first, oracle)
                store.fail_next_save = True
                await client.send(type="answers", session=sid, answers=answers)
                error = await client.recv()
                failed_stats = server.stats()
                row, owner = store.load(sid), store.owner_of(sid)
                # Resending the same answers rebuilds the session from
                # its last durable round and carries on.
                await client.send(type="answers", session=sid, answers=answers)
                finished, wire = await answer_until_done(
                    client, oracle, first=await client.recv()
                )
                await client.close()
                await server.close()
                wire = list(zip(questions, answers)) + wire
                stats = server.stats()
                return error, failed_stats, row, owner, finished, wire, stats

        error, failed_stats, row, owner, finished, wire, stats = run(main())
        assert error["type"] == "error"
        assert error["session"] == finished["session"]
        assert "session store failed" in error["message"]
        assert failed_stats["live_sessions"] == 0
        assert failed_stats["warm_sessions"] == 0
        assert failed_stats["wire_errors"] == 1
        assert row.rounds == 1 and row.snapshot.responses == []
        assert owner is None
        assert_bit_identical(finished, wire, target)
        assert stats["sessions_resumed"] == stats["sessions_replayed"] == 1

    class ReleaseFails(SessionStore):
        fail_release = False

        def release(self, session_id, owner):
            if self.fail_release:
                raise sqlite3.OperationalError("database is locked")
            return super().release(session_id, owner)

    def test_failed_release_spares_the_evictor_and_close(self):
        """A release that fails during idle eviction or close() leaves
        the claim ours (the next rebuild here reclaims it); the evictor
        keeps sweeping and close() still finishes its work."""
        targets = [random_qhorn1(3, random.Random(seed)) for seed in (32, 33)]

        async def main():
            with self.ReleaseFails() as store:
                server = RoundServer(store, idle_timeout=0.05)
                await server.start()
                client = await Client.connect(server.port)
                firsts = []
                for _ in targets:
                    await client.send(type="open", n=3)
                    firsts.append(await client.recv())
                store.fail_release = True
                await asyncio.sleep(0.3)  # several sweeps past the timeout
                evicted = server.stats()
                owners = [store.owner_of(m["session"]) for m in firsts]
                # No further sweeps: the second session must reach
                # close() live.
                server.idle_timeout = 3600.0
                # Both sessions resume here, release still failing; the
                # second stays live into close().
                finished, wire = await answer_until_done(
                    client, QueryOracle(targets[0]), first=firsts[0]
                )
                await client.send(
                    type="reconnect", session=firsts[1]["session"]
                )
                assert (await client.recv())["type"] == "round"
                assert server.stats()["live_sessions"] == 1
                await client.close()
                port = server.port
                await server.close()
                with pytest.raises(OSError):
                    await Client.connect(port)
                return evicted, owners, finished, wire, server.stats()

        evicted, owners, finished, wire, closed = run(main())
        assert evicted["evictions"] == 2
        assert evicted["live_sessions"] == 0
        assert owners[0] == owners[1] is not None  # still ours
        assert_bit_identical(finished, wire, targets[0])
        assert closed["live_sessions"] == 0
        assert closed["sessions_resumed"] == 2

    def test_locked_store_fails_the_round_within_the_busy_timeout(
        self, tmp_path
    ):
        """Another connection holding the store's write lock fails the
        round after a bounded wait (the save's and the release's, each
        ``BUSY_TIMEOUT``), not the default 30 s per statement; after it
        commits, the same answers continue the dialogue."""
        target = random_qhorn1(3, random.Random(31))
        path = tmp_path / "sessions.sqlite"

        async def main():
            with SessionStore(path) as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                oracle = QueryOracle(target)
                questions, answers = answer(first, oracle)
                holder = sqlite3.connect(path, isolation_level=None)
                try:
                    holder.execute("BEGIN IMMEDIATE")
                    began = time.perf_counter()
                    await client.send(
                        type="answers", session=sid, answers=answers
                    )
                    error = await client.recv()
                    waited = time.perf_counter() - began
                    row = store.load(sid)
                    holder.execute("COMMIT")
                finally:
                    holder.close()
                await client.send(type="answers", session=sid, answers=answers)
                finished, wire = await answer_until_done(
                    client, oracle, first=await client.recv()
                )
                await client.close()
                await server.close()
                wire = list(zip(questions, answers)) + wire
                return error, waited, row, finished, wire

        error, waited, row, finished, wire = run(asyncio.wait_for(main(), 10))
        assert error["type"] == "error"
        assert error["session"] == finished["session"]
        assert error["message"] == (
            "session store failed: database is locked"
        )
        assert waited < 5
        assert row.rounds == 1 and row.snapshot.responses == []
        assert_bit_identical(finished, wire, target)


class TestParkAndResume:
    def test_snapshot_while_parked_then_quit_then_reconnect(self):
        target = random_qhorn1(3, random.Random(31))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                # Snapshot while the round is parked: the replay log so far.
                await client.send(type="snapshot", session=sid)
                snap = await client.recv()
                assert snap["type"] == "snapshot"
                assert snap["snapshot"]["responses"] == []
                # Quit parks the session; the store still holds it.
                await client.send(type="quit", session=sid)
                closed = await client.recv()
                assert closed["type"] == "closed"
                assert sid in store
                await client.close()

                # A brand-new connection reconnects and finishes.
                client = await Client.connect(server.port)
                await client.send(type="reconnect", session=sid)
                again = await client.recv()
                assert again["type"] == "round"
                assert again["questions"] == first["questions"]
                assert again["index"] == first["index"] == 0
                finished, _ = await answer_until_done(
                    client, QueryOracle(target), first=again
                )
                await client.close()
                await server.close()
                return finished

        finished = run(main())
        assert finished["query"] == sync_reference(target).query.shorthand()

    def test_snapshot_failure_keeps_serving(self, monkeypatch):
        """A SnapshotError on a snapshot request becomes an error reply,
        not a dropped connection; the session stays parked at its
        round."""
        target = random_qhorn1(3, random.Random(31))

        def boom(self):
            raise SnapshotError("simulated mid-round guard")

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                monkeypatch.setattr(LearningSession, "snapshot", boom)
                await client.send(type="snapshot", session=sid)
                error = await client.recv()
                monkeypatch.undo()
                await client.send(type="reconnect", session=sid)
                again = await client.recv()
                finished, _ = await answer_until_done(
                    client, QueryOracle(target), first=again
                )
                await client.close()
                await server.close()
                return first, error, again, finished

        first, error, again, finished = run(main())
        assert error["type"] == "error"
        assert error["session"] == first["session"]
        assert "mid-round guard" in error["message"]
        assert again["index"] == first["index"] == 0
        assert again["questions"] == first["questions"]
        assert finished["query"] == sync_reference(target).query.shorthand()
        assert finished["metering"]["errors"] == 1

    def test_idle_eviction_then_transparent_resume(self):
        target = random_qhorn1(3, random.Random(41))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                assert server.evict_idle(0.0) == 1
                assert server.stats()["live_sessions"] == 0
                # The very next answers frame resumes from the store
                # without the client noticing anything happened.
                finished, _ = await answer_until_done(
                    client, QueryOracle(target), first=first
                )
                await client.close()
                await server.close()
                return finished, server.stats()

        finished, stats = run(main())
        assert finished["query"] == sync_reference(target).query.shorthand()
        assert stats["evictions"] == 1
        assert finished["metering"]["resumes"] == 1

    def test_finished_session_cannot_be_reopened(self):
        target = random_qhorn1(3, random.Random(51))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                finished, _ = await answer_until_done(
                    client, QueryOracle(target)
                )
                await client.send(
                    type="reconnect", session=finished["session"]
                )
                reply = await client.recv()
                await client.close()
                await server.close()
                return reply

        reply = run(main())
        assert reply["type"] == "error"
        assert "already finished" in reply["message"]

    def test_version_one_row_is_refused_and_stays_unclaimed(self):
        """A version-1 replay log was written in the one-search-at-a-time
        round order; replaying it positionally would feed its answers to
        the wrong questions, so reconnect gets a recoverable error and
        the row is left as it was, unclaimed."""
        target = random_qhorn1(4, random.Random(52))
        session = LearningSession(lambda oracle: Qhorn1Learner(oracle), n=4)
        event = session.start()
        session.feed(QueryOracle(target).ask_many(event.questions))
        legacy = json.dumps(dict(session.snapshot().to_dict(), version=1))
        with SessionStore() as store:
            store.save(
                StoredSession(
                    session_id="old",
                    learner="qhorn1",
                    n=4,
                    status="active",
                    rounds=2,
                    questions=len(session.transcript),
                    snapshot=session.snapshot(),
                )
            )
            store.connection.execute(
                "UPDATE sessions SET snapshot = ? WHERE session_id = 'old'",
                (legacy,),
            )
            server = RoundServer(store)
            replies = handle_line(
                server, json.dumps({"type": "reconnect", "session": "old"})
            )
            assert [r["type"] for r in replies] == ["error"]
            assert replies[0]["session"] == "old"
            assert "unsupported snapshot version 1" in replies[0]["message"]
            assert store.owner_of("old") is None
            (row,) = store.connection.execute(
                "SELECT snapshot FROM sessions WHERE session_id = 'old'"
            ).fetchall()
            assert row == (legacy,)
            stats = server.stats()
            assert stats["live_sessions"] == 0
            assert stats["sessions_resumed"] == 0
            # The error is recoverable: the connection keeps serving.
            (opened,) = handle_line(server, '{"type": "open", "n": 2}')
            assert opened["type"] == "round"


def count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name`` (still calling through)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWarmParkedSessions:
    """quit keeps the parked session warm on its server, still claimed,
    and a reconnect there reuses it as it is; a session that left memory
    is released and replays from the store (``sessions_replayed``)."""

    def test_same_worker_reconnect_reuses_the_warm_session(
        self, monkeypatch
    ):
        """A quit and the reconnect after it make no store call: the row
        is never claimed, released, written, read back, parsed or
        replayed."""
        replays = count_calls(monkeypatch, LearningSession, "resume")
        parses = count_calls(monkeypatch, SessionSnapshot, "from_dict")
        store_calls = {
            name: count_calls(monkeypatch, SessionStore, name)
            for name in ("claim", "release", "save", "load")
        }
        target = random_qhorn1(3, random.Random(31))

        def counts():
            return {name: len(calls) for name, calls in store_calls.items()}

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                message = await client.recv()
                oracle, wire, hops = QueryOracle(target), [], 0
                while message["type"] == "round":
                    # Park after every round, then reconnect.
                    sid = message["session"]
                    before = counts()
                    await client.send(type="quit", session=sid)
                    assert (await client.recv())["type"] == "closed"
                    await client.send(type="reconnect", session=sid)
                    again = await client.recv()
                    assert counts() == before
                    assert store.owner_of(sid) is not None
                    hops += 1
                    assert again["index"] == message["index"]
                    assert again["questions"] == message["questions"]
                    questions, answers = answer(again, oracle)
                    wire.extend(zip(questions, answers))
                    await client.send(
                        type="answers", session=sid, answers=answers
                    )
                    message = await client.recv()
                await client.close()
                await server.close()
                return message, wire, hops, server.stats()

        finished, wire, hops, stats = run(main())
        assert_bit_identical(finished, wire, target)
        assert hops > 1
        assert replays == parses == []
        for name in ("claim", "release", "load"):
            assert store_calls[name] == [], name
        assert stats["sessions_resumed"] == hops
        assert stats["sessions_replayed"] == 0
        assert finished["metering"]["resumes"] == 1

    #: Each way a released row can differ from what this server last
    #: wrote (an SQL edit once the session left memory), and what the
    #: reconnect must then do: (reply index or error text, resumed,
    #: replayed, claims rejected, the live session's rounds and
    #: questions).
    ROW_CHANGES = {
        # Same log, other bytes: parsed equal, replayed as usual.
        "snapshot text": (
            "UPDATE sessions SET snapshot = replace(snapshot, ', ', ',')",
            (1, 1, 1, 0, (2, 3)),
        ),
        # Counters come from the replayed log, not the row's columns.
        "rounds": (
            "UPDATE sessions SET rounds = rounds + 3",
            (1, 1, 1, 0, (2, 3)),
        ),
        "questions": (
            "UPDATE sessions SET questions = questions + 3",
            (1, 1, 1, 0, (2, 3)),
        ),
        # Another learner's replay of the log diverges from it.
        "learner": (
            "UPDATE sessions SET learner = 'role-preserving'",
            ("replay diverged", 0, 0, 0, None),
        ),
        "finished": (
            "UPDATE sessions SET status = 'finished'",
            ("already finished", 0, 0, 0, None),
        ),
        "deleted": (
            "DELETE FROM sessions",
            ("unknown session", 0, 0, 0, None),
        ),
        "live owner": (
            f"UPDATE sessions SET owner = '{owner_token('elsewhere')}'",
            ("live on another worker", 0, 0, 1, None),
        ),
        # A dead pid's claim is stolen.
        "dead owner": (
            "UPDATE sessions SET owner = '0.dead'",
            (1, 1, 1, 0, (2, 3)),
        ),
    }

    @pytest.mark.parametrize("change", sorted(ROW_CHANGES))
    def test_changed_row_takes_the_general_path(self, change, monkeypatch):
        """Once the parked session is evicted, its row is the whole
        truth: a row edited in any way is loaded, claimed and replayed
        as it stands, stolen or refused."""
        statement, expected = self.ROW_CHANGES[change]
        target = random_qhorn1(3, random.Random(31))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                _, answers = answer(first, QueryOracle(target))
                await client.send(type="answers", session=sid, answers=answers)
                parked = await client.recv()
                await client.send(type="quit", session=sid)
                assert (await client.recv())["type"] == "closed"
                server.evict_idle(0.0)
                store.connection.execute(statement)
                loads = count_calls(monkeypatch, SessionStore, "load")
                await client.send(type="reconnect", session=sid)
                reply = await client.recv()
                live = server._sessions.get(sid)
                counted = live and (
                    live.session.rounds,
                    len(live.session.transcript),
                )
                stats = server.stats()
                await client.close()
                await server.close()
                return parked, reply, counted, stats, len(loads)

        parked, reply, counted, stats, loads = run(main())
        shown, resumed, replayed, rejected, live_counts = expected
        if isinstance(shown, int):
            assert reply["type"] == "round", reply
            assert reply["index"] == shown
            assert reply["questions"] == parked["questions"]
        else:
            assert reply["type"] == "error", reply
            assert shown in reply["message"]
        assert counted == live_counts
        assert stats["sessions_resumed"] == resumed
        assert stats["sessions_replayed"] == replayed
        assert stats["claims_rejected"] == rejected
        assert stats["warm_sessions"] == 0
        assert loads == 1

    def test_rebuilt_dialogue_meters_like_one_that_stayed(self):
        """A dialogue rebuilt from the store after eviction, before every
        round it answers, finishes with the rounds and questions of one
        that never left memory: the replayed log counts them."""
        target = random_qhorn1(4, random.Random(37))
        oracle = QueryOracle(target)

        def dialogue(evict):
            with SessionStore() as store:
                server = RoundServer(store)
                (message,) = handle_line(server, '{"type": "open", "n": 4}')
                sid = message["session"]
                answered = 0
                while message["type"] == "round":
                    if evict:
                        assert server.evict_idle(0.0) == 1
                    _, answers = answer(message, oracle)
                    answered += 1
                    (message,) = handle_line(
                        server,
                        json.dumps(
                            {"type": "answers", "session": sid, "answers": answers}
                        ),
                    )
                row = store.load(sid)
                replayed = server.stats()["sessions_replayed"]
                assert replayed == (answered if evict else 0)
                return message, (row.rounds, row.questions)

        stayed, stayed_row = dialogue(evict=False)
        rebuilt, rebuilt_row = dialogue(evict=True)
        assert stayed["type"] == rebuilt["type"] == "finished"
        counts = (stayed["metering"]["rounds"], stayed["metering"]["questions"])
        assert counts == (stayed["rounds"], stayed["questions"])
        assert counts == (rebuilt["metering"]["rounds"], rebuilt["metering"]["questions"])
        assert counts == (rebuilt["rounds"], rebuilt["questions"])
        assert counts == stayed_row == rebuilt_row
        assert (stayed["metering"]["resumes"], rebuilt["metering"]["resumes"]) == (0, 1)

    def test_rewritten_row_replays_to_the_corrected_round(self):
        """Once the parked session is evicted, a correction may rewrite
        its row to a shorter log, and the reconnect replays to the
        corrected round."""
        target = random_qhorn1(3, random.Random(31))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                first = await client.recv()
                sid = first["session"]
                oracle = QueryOracle(target)
                questions, answers = answer(first, oracle)
                wire = list(zip(questions, answers))
                await client.send(type="answers", session=sid, answers=answers)
                second = await client.recv()
                await client.send(type="snapshot", session=sid)
                parked = (await client.recv())["snapshot"]
                _, answers = answer(second, oracle)
                await client.send(type="answers", session=sid, answers=answers)
                assert (await client.recv())["type"] == "round"
                await client.send(type="quit", session=sid)
                assert (await client.recv())["type"] == "closed"
                server.evict_idle(0.0)
                assert store.owner_of(sid) is None
                # Rewrite the row back to the second round's log.
                store.save(
                    StoredSession(
                        session_id=sid,
                        learner="qhorn1",
                        n=3,
                        status="active",
                        rounds=2,
                        questions=len(wire),
                        snapshot=SessionSnapshot.from_dict(parked),
                    )
                )
                await client.send(type="reconnect", session=sid)
                again = await client.recv()
                finished, rest = await answer_until_done(
                    client, oracle, first=again
                )
                await client.close()
                await server.close()
                return second, again, finished, wire + rest, server.stats()

        second, again, finished, wire, stats = run(main())
        assert again["index"] == second["index"] == 1
        assert again["questions"] == second["questions"]
        assert_bit_identical(finished, wire, target)
        assert stats["sessions_resumed"] == stats["sessions_replayed"] == 1

    def test_table_is_capped_and_emptied(self, monkeypatch):
        """Past WARM_SESSIONS the least recently parked session drops
        and replays; evict_idle (uncounted) and close() empty the
        table."""
        monkeypatch.setattr(server_core, "WARM_SESSIONS", 3)
        targets = [random_qhorn1(3, random.Random(91 + i)) for i in range(4)]

        async def park(client, sid):
            await client.send(type="quit", session=sid)
            assert (await client.recv())["type"] == "closed"

        async def main():
            seen = {"replayed": [], "dialogues": []}
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                firsts = []
                for _ in targets:
                    await client.send(type="open", n=3)
                    firsts.append(await client.recv())
                    await park(client, firsts[-1]["session"])
                seen["parked"] = server.stats()
                for first in firsts:
                    sid = first["session"]
                    await client.send(type="reconnect", session=sid)
                    again = await client.recv()
                    assert again["questions"] == first["questions"]
                    seen["replayed"].append(
                        server.stats()["sessions_replayed"]
                    )
                for first in firsts:
                    await park(client, first["session"])
                seen["evicted"] = server.evict_idle(0.0)
                seen["idle"] = server.stats()
                for first, target in zip(firsts, targets):
                    sid = first["session"]
                    await client.send(type="reconnect", session=sid)
                    seen["dialogues"].append(
                        await answer_until_done(client, QueryOracle(target))
                    )
                seen["finished"] = server.stats()
                await client.send(type="open", n=3)
                await park(client, (await client.recv())["session"])
                seen["before_close"] = server.stats()
                await client.close()
                await server.close()
                seen["closed"] = server.stats()
            return seen

        seen = run(main())
        assert seen["parked"]["warm_sessions"] == 3
        assert seen["replayed"] == [1, 1, 1, 1]  # only the oldest replayed
        assert seen["evicted"] == 0
        assert seen["idle"]["warm_sessions"] == 0
        assert seen["idle"]["evictions"] == 0
        for (finished, wire), target in zip(seen["dialogues"], targets):
            assert_bit_identical(finished, wire, target)
        assert seen["finished"]["sessions_replayed"] == 1 + len(targets)
        assert seen["before_close"]["warm_sessions"] == 1
        assert seen["closed"]["warm_sessions"] == 0

    def test_every_drop_from_memory_releases_the_claim(self, monkeypatch):
        """A parked session keeps its claim while it is warm; a full
        table, evict_idle and close() each release what they drop."""
        monkeypatch.setattr(server_core, "WARM_SESSIONS", 2)
        with SessionStore() as store:
            server = RoundServer(store)

            def open_one():
                (first,) = handle_line(server, '{"type": "open", "n": 3}')
                return first["session"]

            def park(sid):
                (closed,) = handle_line(
                    server, json.dumps({"type": "quit", "session": sid})
                )
                assert closed["type"] == "closed"

            def claimed(sids):
                return [store.owner_of(sid) is not None for sid in sids]

            overflow = [open_one() for _ in range(3)]
            for sid in overflow:
                park(sid)
            assert claimed(overflow) == [False, True, True]
            assert server.evict_idle(0.0) == 0
            assert claimed(overflow) == [False, False, False]
            parked, live = [open_one() for _ in range(2)], open_one()
            for sid in parked:
                park(sid)
            assert claimed([*parked, live]) == [True, True, True]
            run(server.close())
            assert claimed([*parked, live]) == [False, False, False]
            assert server.stats()["claims_rejected"] == 0


class TestRestartDurability:
    def test_kill_server_restart_resume_round_trip(self, tmp_path):
        """The §2f acceptance story: sessions parked mid-dialogue in a
        file-backed store resume at their exact parked round on a fresh
        server process-equivalent (new RoundServer, new SessionStore)."""
        targets = [
            random_qhorn1(3, random.Random(61)),
            random_qhorn1(3, random.Random(62)),
            random_qhorn1(3, random.Random(63)),
        ]
        path = tmp_path / "sessions.sqlite"

        async def phase_one():
            store = SessionStore(path)
            server = RoundServer(store)
            await server.start()
            parked = {}
            for index, target in enumerate(targets):
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                message = await client.recv()
                oracle = QueryOracle(target)
                # Answer `index` rounds, then hang up mid-dialogue.
                for _ in range(index):
                    questions = [
                        payload_from_dict(d) for d in message["questions"]
                    ]
                    answers = oracle.ask_many(questions)
                    await client.send(
                        type="answers",
                        session=message["session"],
                        answers=answers,
                    )
                    message = await client.recv()
                assert message["type"] == "round"
                parked[message["session"]] = (target, message)
                await client.close()
            await server.close()  # the "kill": drops all live state
            store.close()
            return parked

        async def phase_two(parked):
            store = SessionStore(path)
            server = RoundServer(store)
            await server.start()
            results = {}
            for sid, (target, last_round) in parked.items():
                client = await Client.connect(server.port)
                await client.send(type="reconnect", session=sid)
                resumed = await client.recv()
                # The exact parked round, same questions, same index.
                assert resumed["type"] == "round"
                assert resumed["questions"] == last_round["questions"]
                assert resumed["index"] == last_round["index"]
                finished, _ = await answer_until_done(
                    client, QueryOracle(target), first=resumed
                )
                results[sid] = (target, finished)
                await client.close()
            await server.close()
            store.close()
            return results, server.stats()

        parked = run(phase_one())
        assert len(parked) == len(targets)
        results, stats = run(phase_two(parked))
        assert stats["sessions_resumed"] == len(targets)
        for sid, (target, finished) in results.items():
            reference = sync_reference(target)
            assert finished["query"] == reference.query.shorthand()
            # Lifetime totals survive the restart: the finished summary
            # meters every question of the dialogue, not just the ones
            # after the resume.
            assert finished["questions"] == reference.questions_asked
            assert finished["metering"]["resumes"] == 1

    def test_store_rows_written_at_every_round_boundary(self):
        target = random_qhorn1(3, random.Random(71))

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                message = await client.recv()
                sid = message["session"]
                row = store.load(sid)
                assert row is not None and row.rounds == 1
                assert row.status == "active"
                finished, _ = await answer_until_done(
                    client, QueryOracle(target), first=message
                )
                row = store.load(sid)
                await client.close()
                await server.close()
                return row, finished

        row, finished = run(main())
        assert row.finished
        assert row.rounds == finished["rounds"]
        assert row.questions == finished["questions"]


class TestBackpressure:
    def test_a_client_that_stops_reading_stops_being_read(self):
        """Replies are written from the callback that received their
        line: while the client reads nothing, the server stops handling
        its lines once the replies pass the transport's high-water mark;
        when it reads again, every reply arrives once and in order."""
        requests = 2000

        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                handled = []
                handle_line = server._handle_line

                def counted(text):
                    handled.append(text)
                    return handle_line(text)

                server._handle_line = counted
                # Small socket buffers, so the replies back up in the
                # server's transport rather than in the kernel.
                ours, theirs = socket.socketpair()
                for sock in (ours, theirs):
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                _, connection = await (
                    asyncio.get_running_loop().connect_accepted_socket(
                        lambda: server_core._Connection(server), theirs
                    )
                )
                serving = connection.closed
                reader, writer = await asyncio.open_connection(
                    sock=ours, limit=4096
                )
                client = Client(reader, writer)
                sids = []
                for _ in range(3):
                    await client.send(type="open", n=8)
                    sids.append((await client.recv())["session"])
                rng = random.Random(7)
                order = [rng.choice(sids) for _ in range(requests)]
                # Send every request without waiting for the server to
                # take them, and read nothing.
                writer.write(
                    "".join(
                        json.dumps({"type": "snapshot", "session": sid}) + "\n"
                        for sid in order
                    ).encode()
                )
                await asyncio.sleep(0.3)
                stalled = len(handled)
                await asyncio.sleep(0.3)
                still = len(handled)
                replies = [await client.recv() for _ in order]
                writer.write_eof()
                rest = await asyncio.wait_for(reader.read(), timeout=30)
                await asyncio.wait_for(serving, timeout=30)
                writer.close()
                await server.close()
                return order, stalled, still, replies, rest, len(handled)

        order, stalled, still, replies, rest, handled = run(main())
        opens = 3
        assert opens < stalled == still < opens + requests
        assert [r["type"] for r in replies] == ["snapshot"] * requests
        assert [r["session"] for r in replies] == order
        assert rest == b""
        assert handled == opens + requests

    def test_evict_loop_runs_with_idle_timeout(self):
        async def main():
            with SessionStore() as store:
                server = RoundServer(store, idle_timeout=0.02)
                await server.start()
                client = await Client.connect(server.port)
                await client.send(type="open", n=3)
                message = await client.recv()
                await asyncio.sleep(0.08)  # > idle_timeout + sweep tick
                stats = server.stats()
                await client.close()
                await server.close()
                return message, stats

        message, stats = run(main())
        assert message["type"] == "round"
        assert stats["evictions"] == 1
        assert stats["live_sessions"] == 0


class TestServerLifecycle:
    def test_double_start_rejected(self):
        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                await server.start()
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()
                await server.close()

        run(main())

    def test_port_before_start_rejected(self):
        with SessionStore() as store:
            with pytest.raises(RuntimeError, match="not started"):
                RoundServer(store).port
