"""Unit tests for the sans-io step protocol (DESIGN.md §2e): the two
steppers of a learner's generator (``drive`` and ``LearningSession``),
the yield-point helpers, shared rounds, the driver dispatch, and the
round payloads' wire form."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

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
    ProtocolError,
    Round,
    answer_round,
    ask_one,
    ask_parallel,
    ask_round,
    drive,
)


def q(n, *masks):
    return Question.of(n, masks)


def by_label(question):
    """A deterministic answer that differs between neighbours."""
    return question[-1] % 2 == 0


class RoundOracle:
    """Answers every question with ``answer`` and keeps each round."""

    def __init__(self, answer=by_label, n=2):
        self.answer = answer
        self.n = n
        self.rounds = []

    def ask_many(self, questions):
        self.rounds.append(list(questions))
        return [self.answer(x) for x in questions]


def run_rounds(steps, answer=by_label):
    """Drive ``steps``; return the rounds it asked and its result."""
    oracle = RoundOracle(answer)
    result = drive(steps, oracle)
    return oracle.rounds, result


def session_of(steps):
    """A step-driven session whose learner runs the generator function
    ``steps``; its result's ``query`` is what ``steps`` returns."""

    class Learner:
        def __init__(self, oracle):
            pass

        def steps(self):
            return SimpleNamespace(query=(yield from steps()))

    return LearningSession(Learner, n=2)


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

        rounds, result = run_rounds(steps(), lambda question: True)
        assert rounds == [[q(2, 3)]]
        assert result is True

    def test_ask_round_empty_asks_nothing(self):
        def steps():
            answers = yield from ask_round([])
            return answers

        assert run_rounds(steps()) == ([], [])

    def test_ask_round_batched(self):
        def steps():
            return (yield from ask_round([q(2, 1), q(2, 2)]))

        rounds, result = run_rounds(steps(), lambda question: question == q(2, 1))
        assert rounds == [[q(2, 1), q(2, 2)]]
        assert result == [True, False]


class TestLearnerProtocol:
    """The learner protocol's state machine is ``LearningSession``'s: it
    steps its learner's generator, checks the order of calls and every
    answer batch, and counts the rounds."""

    @staticmethod
    def _steps():
        a = yield from ask_one(q(2, 1))
        b = yield from ask_round([q(2, 2), q(2, 3)])
        return (a, b)

    def test_state_machine(self):
        session = session_of(self._steps)
        assert session.rounds == 0 and not session.finished
        first = session.start()
        assert session.step() is first and session.rounds == 1
        with pytest.raises(ProtocolError):
            session.result
        second = session.feed([1])
        assert len(second) == 2 and session.rounds == 2
        done = session.feed([False, True])
        assert isinstance(done, Finished) and session.step() is done
        assert session.finished
        assert session.result.query == (True, [False, True])
        # Finishing asks no round; the transcript holds every answer,
        # coerced to bool.
        assert session.rounds == 2
        assert session.transcript.responses() == [True, False, True]

    def test_double_start_rejected(self):
        session = session_of(self._steps)
        session.start()
        with pytest.raises(ProtocolError, match="already started"):
            session.start()

    def test_learner_without_steps_rejected(self):
        session = LearningSession(lambda oracle: object(), n=2)
        with pytest.raises(ProtocolError, match="no steps"):
            session.start()

    def test_feed_before_start_rejected(self):
        session = session_of(self._steps)
        with pytest.raises(ProtocolError, match="before start"):
            session.feed([True])

    def test_wrong_answer_count_rejected(self):
        session = session_of(self._steps)
        session.start()
        with pytest.raises(ProtocolError, match="1 questions, got 2"):
            session.feed([True, False])
        # The round is still pending, with nothing recorded.
        assert session.rounds == 1 and len(session.transcript) == 0
        assert len(session.feed([True])) == 2

    def test_feed_after_finish_rejected(self):
        def steps():
            return (yield from ask_one(q(2, 1)))

        session = session_of(steps)
        session.start()
        session.feed([True])
        with pytest.raises(ProtocolError, match="no pending round"):
            session.feed([True])

    def test_non_round_yield_rejected(self):
        def steps():
            yield "not a round"

        with pytest.raises(ProtocolError, match="yielded str, expected a Round"):
            session_of(steps).start()

    def test_fork_outside_ask_parallel_rejected(self):
        def steps():
            yield Fork(asking("f", 1))

        with pytest.raises(ProtocolError, match="yielded Fork"):
            session_of(steps).start()


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
        assert run_rounds(ask_parallel([])) == ([], [])
        assert run_rounds(ask_parallel([instant(1), instant(2)])) == ([], [1, 2])

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
            run_rounds(ask_parallel([steps()]))

    def test_fork_outside_ask_parallel_rejected(self):
        def steps():
            yield Fork(asking("f", 1))

        with pytest.raises(ProtocolError, match="yielded Fork"):
            run_rounds(steps())


class TestDrive:
    def test_drive_matches_learn(self):
        target = random_qhorn1(4, random.Random(3))
        a = CountingOracle(QueryOracle(target))
        b = CountingOracle(QueryOracle(target))
        r1 = Qhorn1Learner(a).learn()
        r2 = drive(Qhorn1Learner(b).steps(), b)
        assert r1.query == r2.query
        assert vars(a.stats) == vars(b.stats)

    def test_drive_matches_the_session(self):
        """Both steppers ask the same rounds and count them alike."""
        target = random_qhorn1(5, random.Random(8))
        truth = QueryOracle(target)
        oracle = RoundOracle(lambda x: truth.ask_many([x])[0], n=5)
        learned = drive(Qhorn1Learner(oracle).steps(), oracle)
        session = LearningSession(lambda o: Qhorn1Learner(o), n=5)
        event = session.start()
        rounds = []
        while isinstance(event, Round):
            rounds.append(list(event.questions))
            event = session.feed(truth.ask_many(event.questions))
        assert rounds == oracle.rounds
        assert session.rounds == len(rounds)
        assert session.result.query == learned.query

    def test_wrong_answer_count_rejected(self):
        """The oracle is the user: a round it answers short or long is a
        protocol error, not a learner fed the wrong questions."""

        class Miscounting:
            def __init__(self, extra):
                self.extra = extra

            def ask_many(self, questions):
                return [True] * (len(questions) + self.extra)

        def steps():
            return (yield from ask_round([q(2, 1), q(2, 2)]))

        with pytest.raises(ProtocolError, match="2 questions got 3 answers"):
            drive(steps(), Miscounting(1))
        with pytest.raises(ProtocolError, match="2 questions got 1 answers"):
            drive(steps(), Miscounting(-1))

    def test_answers_coerced_to_bool(self):
        def steps():
            return (yield from ask_round([q(2, 1), q(2, 2)]))

        assert drive(steps(), RoundOracle(lambda x: x == q(2, 1) and 1)) == [
            True,
            False,
        ]

    def test_non_round_yield_rejected(self):
        def steps():
            yield "not a round"

        with pytest.raises(ProtocolError, match="yielded str, expected a Round"):
            drive(steps(), RoundOracle())

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
