"""White-box tests for the role-preserving learner's internals:
seeded warm starts, prune strategies, root probing."""

from __future__ import annotations

import pytest

from repro.core.generators import paper_running_query, random_role_preserving
from repro.core.normalize import canonicalize
from repro.core.parser import parse_query
from repro.learning import RolePreservingLearner
from repro.oracle import CountingOracle, QueryOracle
from repro.protocol import drive


class TestSeededBodySearch:
    def test_seed_bodies_skip_rediscovery(self):
        target = paper_running_query()
        oracle = CountingOracle(QueryOracle(target))
        learner = RolePreservingLearner(oracle)
        bodies = drive(
            learner._learn_bodies_steps(
                4,
                [4, 5],
                seed_bodies=[frozenset({0, 3}), frozenset({2, 3})],
                probe_roots_first=True,
            ),
            oracle,
        )
        assert set(bodies) == {frozenset({0, 3}), frozenset({2, 3})}
        # bodyless test + single combined root probe = 2 questions
        assert oracle.questions_asked == 2

    def test_probe_false_falls_through_to_search(self):
        """When a body is missing from the seed, the probe fails and the
        root search finds it."""
        oracle = QueryOracle(paper_running_query())
        learner = RolePreservingLearner(oracle)
        bodies = drive(
            learner._learn_bodies_steps(
                4,
                [4, 5],
                seed_bodies=[frozenset({0, 3})],
                probe_roots_first=True,
            ),
            oracle,
        )
        assert frozenset({2, 3}) in set(bodies)

    def test_unseeded_equals_seeded_result(self, rng):
        for _ in range(10):
            target = random_role_preserving(6, rng, theta=2)
            base = RolePreservingLearner(QueryOracle(target)).learn()
            for head in base.heads:
                oracle = QueryOracle(target)
                seeded = drive(
                    RolePreservingLearner(oracle)._learn_bodies_steps(
                        head,
                        sorted(base.heads),
                        seed_bodies=base.bodies_per_head[head],
                        probe_roots_first=True,
                    ),
                    oracle,
                )
                assert set(seeded) == set(base.bodies_per_head[head])


class TestSeededConjunctionWalk:
    def test_seeding_all_tuples_costs_almost_nothing(self):
        target = paper_running_query()
        canon = canonicalize(target)
        seeds = [
            sum(1 << v for v in c) for c in canon.conjunctions
        ]
        oracle = CountingOracle(QueryOracle(target))
        learner = RolePreservingLearner(oracle)
        discovered = drive(
            learner._learn_conjunctions_steps(
                sorted(canon.universals), seed_discovered=seeds
            ),
            oracle,
        )
        found = {
            frozenset(i for i in range(6) if t & (1 << i))
            for t in discovered
        }
        dominant = {
            c for c in found if not any(c < other for other in found)
        }
        assert dominant == set(canon.conjunctions)
        # fully seeded: the walk collapses almost immediately
        assert oracle.questions_asked <= 6

    def test_duplicate_seeds_deduplicated(self):
        oracle = QueryOracle(parse_query("∃x1x2", n=2))
        discovered = drive(
            RolePreservingLearner(oracle)._learn_conjunctions_steps(
                [], seed_discovered=[0b11, 0b11]
            ),
            oracle,
        )
        assert discovered.count(0b11) == 1


class TestPruneStrategies:
    def test_linear_prune_exact(self, rng):
        for _ in range(20):
            target = random_role_preserving(7, rng, theta=2)
            result = RolePreservingLearner(
                QueryOracle(target), prune="linear"
            ).learn()
            assert canonicalize(result.query) == canonicalize(target)

    def test_invalid_prune_rejected(self):
        with pytest.raises(ValueError):
            RolePreservingLearner(
                QueryOracle(parse_query("∃x1")), prune="magic"
            )

    def test_guarantee_shortcut_off_still_exact(self, rng):
        for _ in range(20):
            target = random_role_preserving(7, rng, theta=2)
            result = RolePreservingLearner(
                QueryOracle(target), use_guarantee_shortcut=False
            ).learn()
            assert canonicalize(result.query) == canonicalize(target)


class TestQhorn1Ablation:
    def test_shortcut_off_still_exact(self, rng):
        from repro.core.generators import random_qhorn1
        from repro.learning import Qhorn1Learner

        for _ in range(20):
            target = random_qhorn1(8, rng)
            result = Qhorn1Learner(
                QueryOracle(target), use_shared_body_shortcut=False
            ).learn()
            assert canonicalize(result.query) == canonicalize(target)
