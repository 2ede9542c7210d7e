"""Integration tests: the theorems' bounds hold on measured sweeps.

Small-scale versions of the benchmark experiments, run as assertions so CI
catches regressions in question complexity, not just correctness.
"""

from __future__ import annotations

import random
import statistics
from itertools import chain, combinations

from repro.analysis import empirical_exponent
from repro.core.generators import (
    head_pair_query,
    random_qhorn1,
    random_role_preserving,
    theta_body_query,
    uni_alias_query,
)
from repro.learning import (
    HeadPairLearner,
    NaiveQhorn1Learner,
    Qhorn1Learner,
    RolePreservingLearner,
)
from repro.oracle import (
    CandidateEliminationAdversary,
    CountingOracle,
    QueryOracle,
)
from repro.verification import build_verification_set


def mean_questions(learner_cls, targets) -> float:
    counts = []
    for t in targets:
        oracle = CountingOracle(QueryOracle(t))
        learner_cls(oracle).learn()
        counts.append(oracle.questions_asked)
    return statistics.mean(counts)


class TestQhorn1Scaling:
    def test_binary_search_beats_naive(self):
        rng = random.Random(1)
        ns = (12, 24, 48)
        for n in ns:
            targets = [random_qhorn1(n, rng) for _ in range(5)]
            fast = mean_questions(Qhorn1Learner, targets)
            naive = mean_questions(NaiveQhorn1Learner, targets)
            assert fast < naive, (n, fast, naive)

    def test_empirical_exponent_subquadratic(self):
        rng = random.Random(2)
        ns = [8, 16, 32, 64]
        means = [
            mean_questions(
                Qhorn1Learner, [random_qhorn1(n, rng) for _ in range(6)]
            )
            for n in ns
        ]
        # n lg n has log-log slope ~1.2 over this range; n² has 2.0.
        assert empirical_exponent(ns, means) < 1.6

    def test_naive_exponent_is_quadratic(self):
        rng = random.Random(3)
        ns = [8, 16, 32]
        means = [
            mean_questions(
                NaiveQhorn1Learner, [random_qhorn1(n, rng) for _ in range(4)]
            )
            for n in ns
        ]
        assert empirical_exponent(ns, means) > 1.6


class TestRolePreservingScaling:
    def test_polynomial_in_n_for_fixed_theta(self):
        rng = random.Random(4)
        ns = [6, 9, 12, 15]
        means = []
        for n in ns:
            targets = [
                random_role_preserving(
                    n, rng, n_heads=2, theta=2, n_conjunctions=2
                )
                for _ in range(5)
            ]
            means.append(mean_questions(RolePreservingLearner, targets))
        # Theorem 3.5's n^{θ+1} with θ=2 caps the slope at 3.
        assert empirical_exponent(ns, means) < 3.2


class TestVerificationScaling:
    def test_verification_size_tracks_k_not_n(self):
        rng = random.Random(5)
        sizes = []
        for n in (6, 10, 14):
            q = random_role_preserving(
                n, rng, n_heads=2, theta=1, n_conjunctions=2
            )
            sizes.append(build_verification_set(q).size)
        # fixed k: the set size must not grow with n
        assert max(sizes) - min(sizes) <= 6


class TestLowerBoundFamilies:
    def test_theorem21_adversary_near_exhaustion(self):
        """Each question eliminates at most one Uni∧Alias candidate."""
        n = 4
        candidates = [
            uni_alias_query(n, list(alias))
            for alias in chain.from_iterable(
                combinations(range(n), r) for r in range(n + 1)
            )
        ]
        adv = CandidateEliminationAdversary(candidates)
        # ask the only informative question shape for every alias pattern
        from repro.core import tuples as bt
        from repro.core.tuples import Question

        top = bt.all_true(n)
        for alias in chain.from_iterable(
            combinations(range(n), r) for r in range(n + 1)
        ):
            pattern = bt.with_false(top, list(alias))
            adv.ask_many([Question.of(n, [top, pattern])])
            if adv.is_identified():
                break
        assert adv.questions_asked >= len(candidates) - 1

    def test_head_pair_questions_quadratic_in_n(self):
        counts = []
        ns = (12, 24)
        for n in ns:
            # worst case: the pair straddles the last two blocks, so every
            # single-block and almost every cross-block probe comes first
            target = head_pair_query(n, n - 3, n - 1)
            learner = HeadPairLearner(QueryOracle(target), max_tuples=4)
            learner.learn()
            counts.append(learner.questions_asked)
        assert counts[1] / counts[0] > 2.5  # quadratic-ish growth

    def test_theta_body_learnable_but_expensive(self):
        """Thm 3.6's family is still exactly learnable; cost grows with θ."""
        from repro.core.normalize import canonicalize

        q6 = theta_body_query(6, 3)
        oracle = CountingOracle(QueryOracle(q6))
        result = RolePreservingLearner(oracle).learn()
        assert canonicalize(result.query) == canonicalize(q6)
        cost_theta3 = oracle.questions_asked

        q_simple = theta_body_query(6, 2)
        oracle2 = CountingOracle(QueryOracle(q_simple))
        RolePreservingLearner(oracle2).learn()
        assert cost_theta3 > oracle2.questions_asked
