"""Unit tests for the sans-io step protocol (DESIGN.md §2e): the
Round/Finished state machine, the driver dispatch, and the round
payloads' wire form."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.generators import random_qhorn1
from repro.core.tuples import Question
from repro.interactive import (
    LearningSession,
    SessionSnapshot,
    SnapshotError,
)
from repro.learning import Qhorn1Learner
from repro.oracle import CountingOracle, QueryOracle
from repro.oracle.expression import ExpressionQuestion
from repro.protocol import (
    Finished,
    Fork,
    LearnerProtocol,
    ProtocolError,
    Round,
    answer_round,
    as_protocol,
    ask_one,
    ask_parallel,
    ask_round,
    drive,
)


def q(n, *masks):
    return Question.of(n, masks)


class TestRound:
    def test_rejects_empty(self):
        with pytest.raises(ProtocolError):
            Round(())

    def test_len(self):
        assert len(Round((q(2, 3), q(2, 1)))) == 2


class TestAskHelpers:
    def test_ask_one_single_unbatched_round(self):
        def steps():
            return (yield from ask_one(q(2, 3)))

        protocol = LearnerProtocol(steps())
        event = protocol.start()
        assert isinstance(event, Round)
        assert event.questions == (q(2, 3),)
        done = protocol.feed([True])
        assert isinstance(done, Finished) and done.result is True

    def test_ask_round_empty_asks_nothing(self):
        def steps():
            answers = yield from ask_round([])
            return answers

        assert isinstance(LearnerProtocol(steps()).start(), Finished)

    def test_ask_round_batched(self):
        def steps():
            return (yield from ask_round([q(2, 1), q(2, 2)]))

        protocol = LearnerProtocol(steps())
        event = protocol.start()
        assert event.questions == (q(2, 1), q(2, 2))
        assert protocol.feed([True, False]).result == [True, False]


class TestLearnerProtocol:
    def _steps(self):
        a = yield from ask_one(q(2, 1))
        b = yield from ask_round([q(2, 2), q(2, 3)])
        return (a, b)

    def test_state_machine(self):
        protocol = LearnerProtocol(self._steps())
        assert protocol.pending is None and not protocol.finished
        first = protocol.start()
        assert protocol.pending is first and protocol.rounds == 1
        with pytest.raises(ProtocolError):
            protocol.result
        second = protocol.feed([True])
        assert len(second) == 2
        done = protocol.feed([False, True])
        assert isinstance(done, Finished)
        assert protocol.finished and protocol.result == (True, [False, True])
        assert protocol.questions_answered == 3

    def test_double_start_rejected(self):
        protocol = LearnerProtocol(self._steps())
        protocol.start()
        with pytest.raises(ProtocolError, match="already started"):
            protocol.start()

    def test_feed_before_start_rejected(self):
        protocol = LearnerProtocol(self._steps())
        with pytest.raises(ProtocolError, match="before start"):
            protocol.feed([True])

    def test_wrong_answer_count_rejected(self):
        protocol = LearnerProtocol(self._steps())
        protocol.start()
        with pytest.raises(ProtocolError, match="1 questions, got 2"):
            protocol.feed([True, False])

    def test_feed_after_finish_rejected(self):
        def steps():
            return (yield from ask_one(q(2, 1)))

        protocol = LearnerProtocol(steps())
        protocol.start()
        protocol.feed([True])
        with pytest.raises(ProtocolError, match="no pending round"):
            protocol.feed([True])

    def test_non_round_yield_rejected(self):
        def steps():
            yield "not a round"

        with pytest.raises(ProtocolError, match="expected a Round"):
            LearnerProtocol(steps()).start()


def asking(name, *sizes):
    """A branch asking rounds of the given sizes, question ``(name, r, i)``
    for the i-th question of its r-th round; returns its answer lists."""
    got = []
    for r, size in enumerate(sizes):
        got.append((yield from ask_round([(name, r, i) for i in range(size)])))
    return got


def instant(value):
    """A branch that finishes without asking anything."""
    return value
    yield  # pragma: no cover - makes this a generator


def by_label(question):
    """A deterministic answer that differs between neighbours."""
    return question[-1] % 2 == 0


def run_rounds(steps, answer=by_label):
    """Drive ``steps``; return the rounds it emitted and its result."""
    protocol = LearnerProtocol(steps)
    event = protocol.start()
    rounds = []
    while isinstance(event, Round):
        rounds.append(list(event.questions))
        event = protocol.feed([answer(x) for x in event.questions])
    return rounds, event.result


class TestAskParallel:
    def test_rounds_join_pending_questions_in_branch_order(self):
        rounds, _ = run_rounds(
            ask_parallel([asking("a", 1, 2), asking("b", 2, 1, 1)])
        )
        assert rounds == [
            [("a", 0, 0), ("b", 0, 0), ("b", 0, 1)],
            [("a", 1, 0), ("a", 1, 1), ("b", 1, 0)],
            [("b", 2, 0)],
        ]

    def test_answers_are_split_back_by_length(self):
        _, (a, b) = run_rounds(
            ask_parallel([asking("a", 3, 1), asking("b", 2, 2)])
        )
        assert a == [[True, False, True], [True]]
        assert b == [[True, False], [True, False]]

    def test_branches_that_end_early_or_never_ask(self):
        rounds, results = run_rounds(
            ask_parallel(
                [instant("none"), asking("a", 1, 1), asking("b", 1)]
            )
        )
        assert rounds == [[("a", 0, 0), ("b", 0, 0)], [("a", 1, 0)]]
        assert results == ["none", [[True], [True]], [[True]]]

    def test_nothing_to_ask_finishes_without_a_round(self):
        assert LearnerProtocol(ask_parallel([])).start() == Finished([])
        event = LearnerProtocol(ask_parallel([instant(1), instant(2)])).start()
        assert event == Finished([1, 2])

    def test_hand_off_joins_from_the_next_round(self):
        handed = []

        def handing():
            first = yield from ask_one(("h", 0, 0))
            yield Fork(recording(asking("f", 1, 1)))
            second = yield from ask_one(("h", 1, 0))
            return first, second

        def recording(steps):
            handed.append((yield from steps))

        rounds, results = run_rounds(
            ask_parallel([handing(), asking("b", 1, 1, 1)])
        )
        assert rounds == [
            [("h", 0, 0), ("b", 0, 0)],
            [("h", 1, 0), ("b", 1, 0), ("f", 0, 0)],
            [("b", 2, 0), ("f", 1, 0)],
        ]
        # A hand-off reports through its own code, not the results.
        assert results == [(True, True), [[True], [True], [True]]]
        assert handed == [[[True], [True]]]

    def test_hand_off_before_the_first_round_joins_it(self):
        def handing():
            yield Fork(asking("f", 2))
            return (yield from ask_one(("h", 0, 1)))

        rounds, results = run_rounds(ask_parallel([handing()]))
        assert rounds == [[("h", 0, 1), ("f", 0, 0), ("f", 0, 1)]]
        assert results == [False]

    def test_results_come_back_in_branch_order(self):
        """The first branch finishes last; its result still comes first."""
        _, results = run_rounds(
            ask_parallel(
                [asking("long", 1, 1, 1), asking("short", 1), instant("x")]
            )
        )
        assert results == [[[True], [True], [True]], [[True]], "x"]

    def test_wrong_answer_count_raises(self):
        steps = ask_parallel([asking("a", 1), asking("b", 2)])
        assert len(next(steps)) == 3
        with pytest.raises(ProtocolError, match="3 questions got 2 answers"):
            steps.send([True, False])

    def test_non_round_yield_rejected(self):
        def steps():
            yield "not a round"

        with pytest.raises(ProtocolError, match="expected a Round"):
            LearnerProtocol(ask_parallel([steps()])).start()

    def test_fork_outside_ask_parallel_rejected(self):
        def steps():
            yield Fork(asking("f", 1))

        with pytest.raises(ProtocolError, match="yielded Fork"):
            LearnerProtocol(steps()).start()


class TestAsProtocol:
    def test_accepts_learner_generator_protocol(self):
        target = random_qhorn1(3, random.Random(5))
        learner = Qhorn1Learner(QueryOracle(target))
        assert isinstance(as_protocol(learner), LearnerProtocol)
        assert isinstance(as_protocol(learner.steps()), LearnerProtocol)
        protocol = LearnerProtocol(learner.steps())
        assert as_protocol(protocol) is protocol

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError):
            as_protocol(42)


class TestDrive:
    def test_drive_matches_learn(self):
        target = random_qhorn1(4, random.Random(3))
        a = CountingOracle(QueryOracle(target))
        b = CountingOracle(QueryOracle(target))
        r1 = Qhorn1Learner(a).learn()
        r2 = drive(Qhorn1Learner(b), b)
        assert r1.query == r2.query
        assert vars(a.stats) == vars(b.stats)

    def test_answer_round_dispatch(self):
        """One ``ask_many`` call per membership round."""
        oracle = CountingOracle(QueryOracle(random_qhorn1(3, random.Random(1))))
        answer_round(oracle, Round((q(3, 7),)))
        answer_round(oracle, Round((q(3, 7), q(3, 5))))
        assert oracle.stats.rounds == 2
        assert oracle.stats.largest_batch == 2
        assert oracle.questions_asked == 3

    def test_answer_round_expression_dispatch(self):
        class Fake:
            def requires_conjunction(self, variables):
                return True

            def requires_implication(self, body, head):
                return False

        round_ = Round(
            (
                ExpressionQuestion.conjunction([0, 1]),
                ExpressionQuestion.implication([0], 2),
            )
        )
        assert answer_round(Fake(), round_) == [True, False]


class TestExpressionQuestion:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExpressionQuestion(kind="nope", variables=(0,))
        with pytest.raises(ValueError):
            ExpressionQuestion(kind="implication", variables=(0,))
        with pytest.raises(ValueError):
            ExpressionQuestion(kind="conjunction", variables=(0,), head=1)


class TestSessionStepMode:
    def _factory(self):
        return lambda oracle: Qhorn1Learner(oracle)

    def test_construction_oracle_refuses_to_answer(self):
        session = LearningSession(self._factory(), n=3)
        event = session.step()
        assert isinstance(event, Round)
        with pytest.raises(ProtocolError, match="3 questions, got 1"):
            session.feed([True])  # wrong count for the n-question round
        # and run() without an oracle is rejected outright
        with pytest.raises(ProtocolError, match="oracle"):
            LearningSession(self._factory(), n=3).run()

    def test_needs_n_or_oracle(self):
        session = LearningSession(self._factory())
        with pytest.raises(ProtocolError, match="explicit n"):
            session.start()

    def test_snapshot_before_start_rejected(self):
        session = LearningSession(self._factory(), n=3)
        with pytest.raises(ProtocolError, match="before start"):
            session.snapshot()

    def test_resume_needs_fresh_session(self):
        session = LearningSession(self._factory(), n=3)
        session.step()
        with pytest.raises(ProtocolError, match="fresh session"):
            session.resume(SessionSnapshot(n=3))

    def test_resume_rejects_wrong_n(self):
        session = LearningSession(self._factory(), n=3)
        with pytest.raises(SnapshotError, match="n=4"):
            session.resume(SessionSnapshot(n=4))

    def test_resume_rejects_mid_round_log(self):
        target = random_qhorn1(3, random.Random(2))
        oracle = QueryOracle(target)
        session = LearningSession(self._factory(), n=3)
        event = session.step()
        session.feed(answer_round(oracle, event))
        snapshot = session.snapshot()
        snapshot.responses.pop()  # corrupt: ends mid-round now
        fresh = LearningSession(self._factory(), n=3)
        with pytest.raises(SnapshotError, match="mid-round"):
            fresh.resume(snapshot)

    def test_resume_detects_divergence(self):
        target = random_qhorn1(3, random.Random(2))
        oracle = QueryOracle(target)
        session = LearningSession(self._factory(), n=3)
        event = session.step()
        event = session.feed(answer_round(oracle, event))
        assert isinstance(event, Round)
        snapshot = session.snapshot()
        snapshot.pending = [q(3, 0)]  # not what the learner will ask
        fresh = LearningSession(self._factory(), n=3)
        with pytest.raises(SnapshotError, match="diverged"):
            fresh.resume(snapshot)

    def test_snapshot_dict_round_trip(self):
        snapshot = SessionSnapshot(
            n=3,
            responses=[True, False],
            pending=[q(3, 7), q(3, 1)],
            restarts=2,
        )
        data = json.loads(json.dumps(snapshot.to_dict()))
        assert SessionSnapshot.from_dict(data) == snapshot

    def test_snapshot_from_dict_ignores_retired_key(self):
        """Rows written with the retired ``pending_batched`` key load."""
        data = SessionSnapshot(n=3, responses=[True], pending=[q(3, 7)]).to_dict()
        assert "pending_batched" not in data
        legacy = dict(data, pending_batched=False)
        assert SessionSnapshot.from_dict(legacy) == SessionSnapshot.from_dict(data)

    def test_snapshot_version_guard(self):
        with pytest.raises(SnapshotError, match="version"):
            SessionSnapshot.from_dict({"version": 99, "n": 2, "responses": []})

    def test_version_one_log_rejected(self):
        """Version-1 logs hold answers in the one-search-at-a-time round
        order; replayed positionally they would answer other questions."""
        data = SessionSnapshot(n=3, responses=[True]).to_dict()
        assert data["version"] == 2
        with pytest.raises(SnapshotError, match="version 1"):
            SessionSnapshot.from_dict(dict(data, version=1))


class TestExpressionPayloadWire:
    """Expression-question rounds serialize through snapshots and the
    server wire exactly like membership rounds (review finding)."""

    def test_payload_round_trip(self):
        from repro.protocol import payload_from_dict, payload_to_dict

        for payload in (
            q(3, 5, 2),
            ExpressionQuestion.conjunction([0, 2]),
            ExpressionQuestion.implication([1], 0),
        ):
            assert payload_from_dict(
                json.loads(json.dumps(payload_to_dict(payload)))
            ) == payload
        with pytest.raises(TypeError, match="cannot serialize"):
            payload_to_dict("not a question")

    def test_expression_session_snapshot_resume(self):
        from repro.core.generators import random_role_preserving
        from repro.learning import ExpressionLearner
        from repro.oracle import ExpressionOracle
        from repro.server.core import round_to_dict

        target = random_role_preserving(4, random.Random(6), theta=2)
        truth = ExpressionOracle(target)

        def factory(oracle):
            return ExpressionLearner(_NSized(oracle.n))
        session = LearningSession(factory, n=4)
        event = session.step()
        rounds = 0
        while not isinstance(event, Finished):
            rounds += 1
            assert round_to_dict(event, rounds - 1)["questions"]
            if rounds == 3:
                snapshot = SessionSnapshot.from_dict(
                    json.loads(json.dumps(session.snapshot().to_dict()))
                )
                session = LearningSession(factory, n=4)
                event = session.resume(snapshot)
            answers = [x.answer_with(truth) for x in event.questions]
            event = session.feed(answers)
        assert session.result.query == ExpressionLearner(
            ExpressionOracle(target)
        ).learn().query


class _NSized:
    """Expression-oracle-shaped construction stub: only carries n."""

    def __init__(self, n):
        self.n = n
