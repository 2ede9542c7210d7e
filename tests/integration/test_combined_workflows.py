"""Integration tests combining subsystems the way a deployment would.

Each test chains at least three subsystems: learning + verification +
revision + SQL + serialization, over the data domain.
"""

from __future__ import annotations

import random

from repro.core.generators import random_role_preserving
from repro.core.normalize import canonicalize
from repro.core.parser import parse_query
from repro.core.serialize import query_from_json, query_to_json
from repro.data import DbApiBackend, QueryEngine
from repro.data.chocolate import random_store, storefront_vocabulary
from repro.learning import (
    Qhorn1Learner,
    RolePreservingLearner,
    revise_query,
)
from repro.oracle import CountingOracle, QueryOracle
from repro.verification import verify_query


class TestLearnSerializeReviseExecute:
    def test_full_lifecycle(self, rng):
        """learn → serialize → (intent drifts) → revise → verify → SQL."""
        vocab = storefront_vocabulary()
        store = random_store(60, random.Random(99))

        # 1. learn the original intent
        v1 = parse_query("∀x1 ∃x2x3", n=4)
        learned = RolePreservingLearner(QueryOracle(v1)).learn().query
        assert canonicalize(learned) == canonicalize(v1)

        # 2. persist and reload
        wire = query_to_json(learned)
        restored = query_from_json(wire)

        # 3. the user's intent drifts; revise the stored query
        v2 = parse_query("∀x1 ∃x2x3x4", n=4)
        revised = revise_query(restored, QueryOracle(v2)).query
        assert canonicalize(revised) == canonicalize(v2)
        assert verify_query(revised, QueryOracle(v2)).verified

        # 4. execute through both engines and agree
        memory = QueryEngine(store, vocab)
        with DbApiBackend(store, vocab) as db:
            assert [o.key for o in db.execute(revised)] == [
                o.key for o in memory.execute(revised)
            ]


class TestClassCheckThenLearn:
    def test_question_budget_accounting_across_subsystems(self, rng):
        """CountingOracle totals across learn + verify + revise compose."""
        target = random_role_preserving(6, rng, theta=2)
        oracle = CountingOracle(QueryOracle(target))
        learned = RolePreservingLearner(oracle).learn().query
        after_learning = oracle.questions_asked
        verify_query(learned, oracle)
        after_verify = oracle.questions_asked
        revise_query(learned, oracle)
        after_revise = oracle.questions_asked
        assert after_learning < after_verify < after_revise
        assert oracle.stats.questions == after_revise


class TestCrossLearnerAgreement:
    def test_three_learners_one_truth(self, rng):
        """qhorn-1, role-preserving and revision-from-anything all land on
        the same canonical query for qhorn-1 targets."""
        from repro.core.generators import random_qhorn1

        for _ in range(8):
            n = rng.randint(3, 7)
            target = random_qhorn1(n, rng)
            via_q1 = Qhorn1Learner(QueryOracle(target)).learn().query
            via_rp = RolePreservingLearner(QueryOracle(target)).learn().query
            start = parse_query("∃x1", n=n)
            via_rev = revise_query(start, QueryOracle(target)).query
            assert (
                canonicalize(via_q1)
                == canonicalize(via_rp)
                == canonicalize(via_rev)
                == canonicalize(target)
            )
