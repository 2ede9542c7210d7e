"""Failure injection: how the system behaves outside its assumptions.

The paper's guarantees hold for consistent users whose intent lies in the
stated class.  A production library must also behave sanely when those
assumptions break: wrong class, inconsistent answers, interfering
propositions, adversarial users.  These tests pin down that behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.generators import (
    random_qhorn1,
    random_role_preserving,
    uni_alias_query,
)
from repro.core.normalize import canonicalize
from repro.core.parser import parse_query
from repro.core.tuples import Question
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.oracle import FunctionOracle, NoisyOracle, QueryOracle
from repro.verification import verify_query


class TestWrongClassTargets:
    def test_qhorn1_learner_on_theta2_target_terminates(self, rng):
        """A role-preserving (θ=2) target is outside qhorn-1; the learner
        must terminate with *some* qhorn-1 query, and verification must
        expose the mismatch."""
        target = parse_query("∀x1x2→x3 ∀x2x4→x3 ∃x1x4", n=4)
        result = Qhorn1Learner(QueryOracle(target)).learn()
        assert result.query.is_qhorn1()
        assert not verify_query(result.query, QueryOracle(target)).verified

    def test_role_preserving_learner_on_alias_target_terminates(self):
        """Thm 2.1's alias queries are outside role-preserving qhorn; the
        learner terminates (body cap) with a role-preserving query."""
        target = uni_alias_query(4, alias_vars=[1, 3])
        oracle = QueryOracle(target)
        result = RolePreservingLearner(oracle).learn()
        assert result.query.is_role_preserving()

    def test_learned_wrong_class_query_detected_not_silent(self, rng):
        """Whenever the qhorn-1 learner mislearns a non-qhorn-1 target, the
        O(k) verification set catches it — learn-then-verify is the safe
        composition."""
        for _ in range(10):
            target = random_role_preserving(5, rng, theta=2)
            learned = Qhorn1Learner(QueryOracle(target)).learn().query
            agree = canonicalize(learned) == canonicalize(target)
            verified = verify_query(learned, QueryOracle(target)).verified
            assert verified == agree


class TestInconsistentUsers:
    def test_random_answer_oracle_never_hangs(self, rng):
        """A coin-flipping user cannot make the learners loop forever."""
        for n in (3, 5, 7):
            flip = FunctionOracle(n, lambda q: rng.random() < 0.5)
            result = RolePreservingLearner(flip).learn()
            assert result.query.n == n  # terminated with some query

    def test_always_yes_oracle(self):
        """'Everything is an answer' = the empty query."""
        yes = FunctionOracle(4, lambda q: True)
        result = RolePreservingLearner(yes).learn()
        assert not result.query.universals
        assert not result.query.existentials

    def test_always_no_oracle(self):
        """'Nothing is an answer' is unsatisfiable in qhorn (every query
        accepts {1^n}); the learner still terminates."""
        no = FunctionOracle(4, lambda q: False)
        result = RolePreservingLearner(no).learn()
        assert result.query.n == 4

    def test_noisy_oracle_detected_by_verification(self, rng):
        """One flipped answer either leaves the result correct or the
        verification set catches the corruption (high probability)."""
        caught, total = 0, 0
        for _ in range(20):
            target = random_qhorn1(6, rng)
            noisy = NoisyOracle(QueryOracle(target), 0.05, rng)
            learned = Qhorn1Learner(noisy).learn().query
            if canonicalize(learned) == canonicalize(target):
                continue
            total += 1
            if not verify_query(learned, QueryOracle(target)).verified:
                caught += 1
        assert caught == total  # every corrupted result was caught


class TestOracleContractViolations:
    def test_width_mismatch_raises(self):
        oracle = QueryOracle(parse_query("∃x1x2"))
        with pytest.raises(ValueError):
            oracle.ask_many([Question.from_strings("101")])

    def test_reviser_handles_totally_wrong_given(self, rng):
        """Revision from a maximally wrong query still lands exactly."""
        from repro.learning import revise_query

        for _ in range(10):
            n = rng.randint(3, 6)
            given = parse_query(
                " ".join(f"∀x{i + 1}" for i in range(n))
            )
            intended = random_role_preserving(n, rng, theta=2)
            result = revise_query(given, QueryOracle(intended))
            assert canonicalize(result.query) == canonicalize(intended)
