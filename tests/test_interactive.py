"""Tests for interactive sessions: transcripts, corrections, verification."""

from __future__ import annotations


import pytest

from repro.core.generators import random_qhorn1
from repro.core.parser import parse_query
from repro.data.chocolate import paper_vocabulary
from repro.interactive import (
    CorrectionLoop,
    LearningSession,
    Transcript,
    VerificationSession,
)
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.oracle import QueryOracle
from tests.conftest import assert_equivalent


class TestTranscript:
    def test_records_in_order(self):
        from repro.core.tuples import Question

        t = Transcript()
        q1, q2 = Question.from_strings("11"), Question.from_strings("10")
        t.record(q1, True)
        t.record(q2, False)
        assert len(t) == 2
        assert t.responses() == [True, False]
        assert [e.index for e in t] == [0, 1]

    def test_format_history_labels(self):
        from repro.core.tuples import Question

        t = Transcript()
        t.record(Question.from_strings("11"), True)
        t.record(Question.from_strings("00"), False)
        history = t.format_history()
        assert "#0 [answer]" in history
        assert "#1 [non-answer]" in history

    def test_renderer_applied(self):
        from repro.core.tuples import Question

        t = Transcript()
        entry = t.record(
            Question.from_strings("111"), True,
            renderer=paper_vocabulary().render_question,
        )
        assert "origin" in entry.rendered


class TestLearningSession:
    def test_clean_session(self):
        target = parse_query("∀x1x2→x3 ∃x4x5 ∀x6", n=6)
        session = LearningSession(Qhorn1Learner, QueryOracle(target))
        result = session.run()
        assert_equivalent(result.query, target)
        assert result.questions_asked == len(result.transcript)
        assert result.restarts == 0

    def test_works_with_role_preserving_learner(self):
        target = parse_query("∀x1x4→x5 ∀x3x4→x5 ∃x1x2x3", n=5)
        session = LearningSession(RolePreservingLearner, QueryOracle(target))
        result = session.run()
        assert_equivalent(result.query, target)

    def test_rendered_transcript(self):
        target = parse_query("∀x1 ∃x2x3")
        session = LearningSession(
            Qhorn1Learner,
            QueryOracle(target),
            renderer=paper_vocabulary().render_question,
        )
        result = session.run()
        assert all("origin" in e.rendered for e in result.transcript)

    def test_manual_correction_restart(self):
        """§5: fix one wrong response, replay the prefix, finish live."""
        target = parse_query("∀x1 ∃x2", n=2)
        truth = QueryOracle(target)

        class OneLie:
            """Answers truthfully except for the very first question."""

            n = 2

            def __init__(self):
                self.count = 0

            def ask_many(self, questions):
                answers = []
                for truthful in truth.ask_many(questions):
                    self.count += 1
                    answers.append(not truthful if self.count == 1 else truthful)
                return answers

        session = LearningSession(Qhorn1Learner, OneLie())
        first = session.run()
        # repair response #0 and restart from there, answering live truthfully
        corrected = truth.ask_many([first.transcript.entries[0].question])[0]
        fixed = session.rerun_with_correction(first, 0, corrected, live=truth)
        assert fixed.restarts == 1
        assert_equivalent(fixed.query, target)


class TestCorrectionLoop:
    def test_recovers_exact_query_under_noise(self, rng):
        for _ in range(15):
            target = random_qhorn1(rng.randint(2, 8), rng)
            loop = CorrectionLoop(
                Qhorn1Learner, target, p_flip=0.1, rng=rng, max_restarts=200
            )
            result = loop.run()
            assert_equivalent(result.query, target)

    def test_zero_noise_needs_no_restart(self, rng):
        target = random_qhorn1(6, rng)
        loop = CorrectionLoop(Qhorn1Learner, target, p_flip=0.0, rng=rng)
        result = loop.run()
        assert result.restarts == 0

    def test_restart_budget_enforced(self, rng):
        target = random_qhorn1(6, rng)
        loop = CorrectionLoop(
            Qhorn1Learner, target, p_flip=1.0, rng=rng, max_restarts=3
        )
        with pytest.raises(RuntimeError):
            loop.run()


class TestVerificationSession:
    def test_pass_and_transcript(self):
        q = parse_query("∀x1→x2 ∃x3", n=3)
        session = VerificationSession(q, QueryOracle(q))
        outcome = session.run()
        assert outcome.verified
        assert len(session.transcript) == outcome.questions_asked

    def test_detects_and_stops(self):
        given = parse_query("∃x1x2", n=2)
        intended = parse_query("∃x1 ∃x2", n=2)
        session = VerificationSession(given, QueryOracle(intended))
        outcome = session.run(stop_at_first=True)
        assert not outcome.verified
        assert len(outcome.disagreements) == 1
