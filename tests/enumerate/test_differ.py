"""The conformance matrix itself: spec parsing, leg agreement,
divergence detection and witness shrinking (DESIGN.md §2j)."""

from __future__ import annotations

import pytest

from repro.core.parser import parse_query
from repro.enumerate.differ import (
    BACKEND_LEGS,
    MatrixSpec,
    check_backends,
    check_learners,
    role_preserving_bound,
    shrink_query,
    shrink_store,
    theorem_31_bound,
)
from repro.enumerate.space import (
    enumerate_queries,
    enumerate_stores,
    store_vocabulary,
)

MATRIX = MatrixSpec()


class TestMatrixSpec:
    def test_full_is_default(self):
        assert MatrixSpec.parse("full") == MatrixSpec()
        assert MatrixSpec.parse(None) == MatrixSpec()
        assert MatrixSpec().backends == tuple(BACKEND_LEGS) == ("bitmask", "dbapi")

    def test_axis_selection(self):
        spec = MatrixSpec.parse("learners=qhorn1+naive")
        assert spec.learners == ("qhorn1", "naive")
        assert spec.backends == MatrixSpec().backends  # untouched axis
        assert MatrixSpec.parse("backends=dbapi").backends == ("dbapi",)

    def test_unknown_axis_and_choice_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix axis"):
            MatrixSpec.parse("flavor=vanilla")
        with pytest.raises(ValueError, match="unknown matrix axis"):
            MatrixSpec.parse("drivers=pull")
        with pytest.raises(ValueError, match="unknown matrix axis"):
            MatrixSpec.parse("oracles=direct")
        with pytest.raises(ValueError, match="unknown learners choice"):
            MatrixSpec.parse("learners=gradient-descent")

    def test_empty_axis_rejected(self):
        """An axis with no choices would run no legs and still report a
        clean sweep."""
        for spec in ("learners=", "backends=", "learners=+", "backends"):
            with pytest.raises(ValueError, match="names no choices"):
                MatrixSpec.parse(spec)

    def test_bounds_are_the_pinned_constants(self):
        import math

        assert theorem_31_bound(4) == 12 * 4 * math.log2(4) + 12
        assert role_preserving_bound(2, 3) == 4 * 8 + 6 * 3 * 2 * 1 + 40


class TestLearnerMatrix:
    def test_all_serial_legs_agree_everywhere(self):
        for entry in enumerate_queries(2):
            report, divergences = check_learners(entry, MATRIX)
            assert divergences == [], [d.detail for d in divergences]
            assert report["status"] == "ok"
            assert report["combos"] == 3  # one leg per learner

    def test_question_counts_within_paper_bounds(self):
        for entry in enumerate_queries(2):
            report, _ = check_learners(entry, MATRIX)
            n = entry.n
            assert report["questions"]["qhorn1"] <= theorem_31_bound(n)
            assert report["questions"]["role-preserving"] <= (
                role_preserving_bound(n, entry.query.size)
            )

    def test_wrong_oracle_becomes_divergence_with_witness(self):
        """A user that lies about its answers must be caught and the
        witness shrunk to something still in the learner's class."""
        from repro.core.serialize import query_from_dict
        from repro.enumerate import differ as differ_module
        from repro.enumerate.space import enumerate_queries as eq

        entry = next(e for e in eq(2) if e.query.size >= 2)
        original = differ_module.QueryOracle

        class LyingOracle(original):  # type: ignore[misc,valid-type]
            def ask_many(self, questions):
                return [not a for a in super().ask_many(questions)]

        differ_module.QueryOracle = LyingOracle
        try:
            spec = MatrixSpec.parse("learners=qhorn1")
            report, divergences = check_learners(entry, spec)
        finally:
            differ_module.QueryOracle = original
        assert report["status"] == "divergent"
        assert divergences, "lying oracle must be detected"
        witness = divergences[0]
        assert witness.site in ("equivalence", "crash")
        assert witness.shrunk_query is not None
        assert query_from_dict(witness.shrunk_query).is_qhorn1()


class TestBackendMatrix:
    def test_all_backends_agree_on_every_pair(self):
        entries = [e for e in enumerate_queries(2) if e.n == 2]
        vocabulary = store_vocabulary(2, "bool")
        for store in list(enumerate_stores(2, 2))[:15]:
            relation = store.relation(vocabulary)
            backends = {
                name: BACKEND_LEGS[name](relation, vocabulary)
                for name in MATRIX.backends
            }
            try:
                for entry in entries:
                    record, divergences = check_backends(
                        entry, store, backends, relation, vocabulary
                    )
                    assert divergences == [], [d.detail for d in divergences]
                    assert record["status"] == "ok"
            finally:
                for backend in backends.values():
                    close = getattr(backend, "close", None)
                    if close is not None:
                        close()

    def test_mixed_vocabulary_pairs_agree(self):
        """Typed predicates (category/numeric) through the SQL renderers
        match the compiled reference too."""
        entries = [e for e in enumerate_queries(2) if e.n == 2][:4]
        vocabulary = store_vocabulary(2, "mixed")
        store = next(
            s for s in enumerate_stores(2, 2) if len(s.objects) == 2
        )
        relation = store.relation(vocabulary)
        backends = {
            name: leg(relation, vocabulary)
            for name, leg in BACKEND_LEGS.items()
        }
        try:
            for entry in entries:
                _, divergences = check_backends(
                    entry, store, backends, relation, vocabulary
                )
                assert divergences == []
        finally:
            for backend in backends.values():
                close = getattr(backend, "close", None)
                if close is not None:
                    close()

    def test_broken_backend_yields_shrunk_divergence(self):
        entry = next(e for e in enumerate_queries(2) if e.n == 2)
        store = next(s for s in enumerate_stores(2, 2) if len(s.objects) == 2)
        vocabulary = store_vocabulary(2, "bool")
        relation = store.relation(vocabulary)
        reference = BACKEND_LEGS["bitmask"](relation, vocabulary)

        class InvertingBackend:
            def matches_many(self, query):
                return [not b for b in reference.matches_many(query)]

            def execute(self, query):
                return reference.execute(query)

            def matching_bits(self, query):
                return reference.matching_bits(query)

        record, divergences = check_backends(
            entry,
            store,
            {"bitmask": InvertingBackend()},
            relation,
            vocabulary,
        )
        assert record["status"] == "divergent"
        assert len(divergences) == 1
        witness = divergences[0]
        assert witness.site == "backend"
        assert "matches_many" in witness.detail
        assert witness.shrunk_query is not None
        assert witness.shrunk_store is not None
        assert witness.to_record()["kind"] == "divergence"


class TestShrinking:
    def test_shrink_query_reaches_a_minimal_core(self):
        query = parse_query("∀x1→x2 ∀x2→x3 ∃x1x2x3", n=3)
        shrunk = shrink_query(
            query, lambda q: any(u.head == 1 for u in q.universals)
        )
        assert len(shrunk.universals) == 1
        assert next(iter(shrunk.universals)).head == 1
        assert not shrunk.existentials

    def test_shrink_store_drops_objects_then_rows(self):
        masks = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1})]
        shrunk = shrink_store(
            masks, lambda candidate: any(1 in m for m in candidate)
        )
        assert shrunk == [frozenset({1})]
