"""Integration tests: the full DataPlay-style pipeline over real data.

Propositions -> learning with rendered example boxes -> verification ->
execution against a synthetic store.  This is the workflow the paper's
introduction motivates, run end to end in the chocolate domain.
"""

from __future__ import annotations

import random


from repro.core.normalize import canonicalize
from repro.core.parser import parse_query
from repro.data import ExampleFactory, QueryEngine
from repro.data.chocolate import (
    intro_query,
    paper_figure1_relation,
    paper_vocabulary,
    random_store,
    storefront_vocabulary,
)
from repro.interactive import LearningSession
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.oracle import CountingOracle, QueryOracle
from repro.verification import verify_query


class DataDomainUser:
    """Simulated user who sees *data objects* (chocolate boxes), not bit
    strings: every question is synthesized into rows, abstracted back, and
    evaluated against the intended query — mirroring a real interaction."""

    def __init__(self, intended, vocabulary, factory):
        self.intended = intended
        self.vocabulary = vocabulary
        self.factory = factory
        self.n = vocabulary.n
        self.boxes_seen = 0

    def ask_many(self, questions):
        return [self._label(question) for question in questions]

    def _label(self, question):
        box = self.factory.from_database(question)
        self.boxes_seen += 1
        tuples = self.vocabulary.abstract_object(box.rows)
        return self.intended.evaluate(tuples)


class TestChocolateWorkflow:
    def test_learn_intro_query_from_rendered_boxes(self):
        """Learn the intro's intended query purely from synthesized boxes."""
        vocab = storefront_vocabulary()
        store = random_store(80, random.Random(7))
        user = DataDomainUser(
            intro_query(), vocab, ExampleFactory(vocab, database=store)
        )
        result = Qhorn1Learner(user).learn()
        assert canonicalize(result.query) == canonicalize(intro_query())
        assert user.boxes_seen > 0

    def test_learned_query_filters_store_identically(self):
        vocab = storefront_vocabulary()
        store = random_store(120, random.Random(11))
        user = DataDomainUser(intro_query(), vocab, ExampleFactory(vocab))
        learned = Qhorn1Learner(user).learn().query
        engine = QueryEngine(store, vocab)
        assert {o.key for o in engine.execute(learned)} == {
            o.key for o in engine.execute(intro_query())
        }

    def test_verification_after_learning(self):
        vocab = storefront_vocabulary()
        user = DataDomainUser(intro_query(), vocab, ExampleFactory(vocab))
        learned = RolePreservingLearner(user).learn().query
        outcome = verify_query(learned, QueryOracle(intro_query()))
        assert outcome.verified

    def test_wrong_draft_query_rejected_by_user(self):
        """DataPlay's core loop: a draft query is shown to the user via its
        verification set; the user's true intent contradicts a label."""
        draft = parse_query("∀x1 ∃x2", n=4)  # all dark, some sugar-free
        outcome = verify_query(draft, QueryOracle(intro_query()))
        assert not outcome.verified

    def test_session_transcript_in_data_domain(self):
        vocab = paper_vocabulary()
        target = parse_query("∀x1 ∃x2x3")
        session = LearningSession(
            Qhorn1Learner,
            QueryOracle(target),
            renderer=vocab.render_question,
        )
        result = session.run()
        assert canonicalize(result.query) == canonicalize(target)
        assert all("origin" in e.rendered for e in result.transcript)

    def test_fig1_boxes_classified_like_paper(self):
        engine = QueryEngine(paper_figure1_relation(), paper_vocabulary())
        query = parse_query("∀x1 ∃x2x3")
        assert not engine.matches(query, engine.relation.get("Global Ground"))
        assert not engine.matches(query, engine.relation.get("Europe's Finest"))


class TestLearnThenVerifyRandom:
    def test_learn_verify_execute_pipeline(self, rng):
        """Random role-preserving targets: learn → verify → execute, with
        the learned query agreeing with the target on every store object."""
        from repro.core.generators import random_role_preserving

        vocab = storefront_vocabulary()
        store = random_store(50, random.Random(23))
        engine = QueryEngine(store, vocab)
        for _ in range(10):
            target = random_role_preserving(4, rng, theta=2)
            oracle = CountingOracle(QueryOracle(target))
            learned = RolePreservingLearner(oracle).learn().query
            assert verify_query(learned, QueryOracle(target)).verified
            assert {o.key for o in engine.execute(learned)} == {
                o.key for o in engine.execute(target)
            }
