"""Bounded-exhaustive conformance: the acceptance-criteria sweep.

Where the other property suites sample random (query, relation) pairs,
this one *proves by cases* at small bounds (DESIGN.md §2j):

* the full conformance matrix — every learner, and every evaluation
  backend — produces **zero divergences** over the complete enumerated
  space at ``n ≤ 2``;
* Theorem 3.1's question bound (at the constants pinned by the learning
  suite: ``12·n·lg n + 12``) holds on **every** enumerated instance,
  not just sampled ones — and the exhaustive maxima are pinned exactly,
  so any learner regression that asks even one extra question fails;
* the enumerated query space itself is a true semantic transversal:
  every qhorn-1 behaviour at ``n ≤ 2`` appears exactly once.
"""

from __future__ import annotations

import io

import pytest

from repro.core.normalize import brute_force_equivalent, enumerate_objects
from repro.core.query import QhornQuery
from repro.enumerate.differ import (
    MatrixSpec,
    check_learners,
    theorem_31_bound,
)
from repro.enumerate.runner import RunConfig, run
from repro.enumerate.space import enumerate_queries, query_signature

FULL = RunConfig(max_props=2, max_objects=2)


class TestExhaustiveConformance:
    def test_zero_divergences_across_the_serial_matrix(self):
        """Every (query, store) pair × every matrix leg agrees."""
        result = run(FULL, io.StringIO())
        assert result.ok, [d.detail for d in result.divergences]
        assert result.queries == 13
        assert result.stores == 93  # 15 at n=1 + 78 at n=2
        assert result.pairs == 888
        assert result.learner_runs == 13 * 3  # one leg per learner
        assert result.backend_checks == 888 * 2  # bitmask, dbapi


class TestTheorem31Exhaustive:
    def test_bound_holds_on_every_instance(self):
        matrix = MatrixSpec.parse("learners=qhorn1")
        for entry in enumerate_queries(2):
            report, divergences = check_learners(entry, matrix)
            assert divergences == []
            assert report["questions"]["qhorn1"] <= theorem_31_bound(entry.n)

    def test_exhaustive_maxima_pinned_exactly(self):
        """The worst case over the WHOLE bounded space, by n — a
        one-question learner regression moves these."""
        matrix = MatrixSpec.parse("learners=qhorn1")
        worst: dict[int, int] = {}
        for entry in enumerate_queries(2):
            report, _ = check_learners(entry, matrix)
            n = entry.n
            worst[n] = max(worst.get(n, 0), report["questions"]["qhorn1"])
        assert worst == {1: 2, 2: 5}
        assert worst[2] <= theorem_31_bound(2) == 36.0


class TestTransversal:
    def test_every_qhorn1_behaviour_appears_exactly_once(self):
        """Completeness + soundness of the semantic dedup at n=2: the
        enumerated signatures equal the signature set of ALL qhorn-1
        queries of ≤ 2 expressions, with no repeats."""
        from itertools import combinations

        from repro.enumerate.space import expression_universe

        entries = [e for e in enumerate_queries(2) if e.n == 2]
        enumerated = {e.signature for e in entries}
        assert len(enumerated) == len(entries)  # no repeats

        universe = expression_universe(2)
        exhaustive = set()
        for size in (1, 2):
            for subset in combinations(universe, size):
                from repro.core.expressions import UniversalHorn

                query = QhornQuery(
                    n=2,
                    universals=frozenset(
                        e for e in subset if isinstance(e, UniversalHorn)
                    ),
                    existentials=frozenset(
                        e for e in subset if not isinstance(e, UniversalHorn)
                    ),
                )
                if query.is_qhorn1():
                    exhaustive.add(query_signature(query))
        assert enumerated == exhaustive

    @pytest.mark.parametrize("n", [1, 2])
    def test_signature_is_sound_for_equivalence(self, n):
        entries = list(e for e in enumerate_queries(n) if e.n == n)
        objects = list(enumerate_objects(n, include_empty=True))
        for a in entries:
            for b in entries:
                same = a.signature == b.signature
                assert same == brute_force_equivalent(a.query, b.query)
                if not same:
                    compiled_a = a.query.compile()
                    compiled_b = b.query.compile()
                    assert any(
                        compiled_a.evaluate(o) != compiled_b.evaluate(o)
                        for o in objects
                    )
