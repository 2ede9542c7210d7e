"""Tests for the baseline learners (naive, brute force, bounded-tuple)."""

from __future__ import annotations

from itertools import chain, combinations

import pytest

from repro.core.generators import (
    enumerate_role_preserving,
    head_pair_query,
    random_qhorn1,
    uni_alias_query,
)
from repro.core.normalize import canonicalize
from repro.core.parser import parse_query
from repro.core.tuples import Question
from repro.learning import BruteForceLearner, HeadPairLearner, NaiveQhorn1Learner
from repro.oracle import CandidateEliminationAdversary, CountingOracle, QueryOracle
from tests.conftest import assert_equivalent


class TestNaiveQhorn1Learner:
    def test_fixed_targets(self):
        for text, n in [
            ("∀x1x2→x3 ∃x4x5 ∀x6", 6),
            ("∃x1x2x3", 3),
            ("∀x1→x2 ∃x3", 3),
            ("∀x3x4→x1 ∃x3x4x2", 4),
        ]:
            target = parse_query(text, n=n)
            result = NaiveQhorn1Learner(QueryOracle(target)).learn()
            assert_equivalent(result.query, target)

    def test_random_targets(self, rng):
        for _ in range(60):
            n = rng.randint(1, 10)
            target = random_qhorn1(n, rng)
            result = NaiveQhorn1Learner(QueryOracle(target)).learn()
            assert_equivalent(result.query, target)

    def test_unused_variables(self, rng):
        for _ in range(20):
            target = random_qhorn1(8, rng, use_all_variables=False)
            result = NaiveQhorn1Learner(QueryOracle(target)).learn()
            assert_equivalent(result.query, target)

    def test_quadratic_question_count(self, rng):
        """The strawman asks Θ(n²): quadrupling n ⇒ ~16x the questions."""
        import statistics

        means = {}
        for n in (8, 32):
            counts = []
            for _ in range(6):
                target = random_qhorn1(n, rng)
                oracle = CountingOracle(QueryOracle(target))
                NaiveQhorn1Learner(oracle).learn()
                counts.append(oracle.questions_asked)
            means[n] = statistics.mean(counts)
        assert means[32] / means[8] > 8  # clearly superlinear


class TestBruteForceLearner:
    def _all_objects(self, n: int) -> list[Question]:
        universe = list(range(1 << n))
        out = []
        for bits in range(1, 1 << len(universe)):
            out.append(
                Question.of(
                    n, [t for i, t in enumerate(universe) if bits & (1 << i)]
                )
            )
        return out

    def test_identifies_among_enumerated_class(self):
        candidates = enumerate_role_preserving(2)
        pool = self._all_objects(2)
        target = candidates[5]
        learner = BruteForceLearner(QueryOracle(target), candidates, pool)
        learned = learner.learn()
        assert canonicalize(learned) == canonicalize(target)

    def test_identifies_every_two_var_query(self):
        candidates = enumerate_role_preserving(2)
        pool = self._all_objects(2)
        for target in candidates:
            learner = BruteForceLearner(QueryOracle(target), candidates, pool)
            learned = learner.learn()
            assert canonicalize(learned) == canonicalize(target)

    def test_degrades_to_linear_on_theorem21_family(self):
        """Thm 2.1: against the adversary, even the best split learner
        needs |class| - 1 questions on the Uni∧Alias family."""
        n = 3
        candidates = [
            uni_alias_query(n, list(alias))
            for alias in chain.from_iterable(
                combinations(range(n), r) for r in range(n + 1)
            )
        ]
        adversary = CandidateEliminationAdversary(candidates)
        learner = BruteForceLearner(
            adversary, candidates, self._all_objects(n)
        )
        learner.learn()
        assert learner.questions_asked >= len(candidates) - 1

    def test_inconsistent_oracle_detected(self):
        candidates = [parse_query("∃x1", n=1)]
        # oracle that contradicts the only candidate
        class Liar:
            n = 1

            def ask_many(self, questions):
                return [False] * len(questions)

        learner = BruteForceLearner(Liar(), candidates * 2, self._all_objects(1))
        with pytest.raises(RuntimeError):
            learner.learn()


class TestHeadPairLearner:
    def test_identifies_pairs(self):
        n = 10
        for i, j in [(0, 1), (3, 7), (8, 9)]:
            target = head_pair_query(n, i, j)
            learner = HeadPairLearner(QueryOracle(target), max_tuples=4)
            found = learner.learn()
            assert set(found) == {i, j}

    def test_budget_respected(self):
        n = 12
        target = head_pair_query(n, 2, 9)
        oracle = CountingOracle(QueryOracle(target))
        learner = HeadPairLearner(oracle, max_tuples=4)
        learner.learn()
        assert oracle.stats.max_tuples <= 4

    def test_question_count_scales_inverse_square_in_c(self, rng):
        """Lemma 3.4: ~n²/c² questions; doubling c quarters the count."""
        n = 24
        worst = {}
        for c in (4, 8):
            counts = []
            for i, j in [(20, 23), (22, 23), (21, 22)]:  # late pairs = worst
                target = head_pair_query(n, i, j)
                learner = HeadPairLearner(QueryOracle(target), max_tuples=c)
                learner.learn()
                counts.append(learner.questions_asked)
            worst[c] = max(counts)
        assert worst[4] > worst[8]

    def test_needs_two_tuples(self):
        with pytest.raises(ValueError):
            HeadPairLearner(QueryOracle(head_pair_query(4, 0, 1)), max_tuples=1)
