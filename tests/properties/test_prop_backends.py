"""Differential properties: the index and the SQL reference are
answer-identical.

DESIGN.md §2c demands that the in-process
:class:`~repro.data.index.RelationIndex` (``bitmask``) and the SQL
reference :class:`~repro.data.dbapi.DbApiBackend` (``dbapi``) return
exactly the answers of the per-object reference path on identical
state, for every qhorn query.  The SQL leg is the strongest form of the
check: it evaluates propositions over *real rows* in SQLite while the
index evaluates vocabulary abstractions in-process, so agreement
exercises the whole ``proposition_to_sql`` / ``Proposition.holds``
correspondence too.

Two layers, mirroring ``test_prop_engine.py``:

* hypothesis properties over random relations/queries;
* a seeded exhaustive sweep of ≥ 1000 random (query, relation) cases
  comparing both legs, so the agreement count demanded by the
  acceptance criteria is explicit.
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from repro.data import DbApiBackend, QueryEngine, RelationIndex
from tests.properties.test_prop_engine import (
    bool_vocabulary,
    engine_cases,
    random_query,
    relation_from_masks,
)


def _backends(relation, vocab):
    """The index and the SQL reference.  The dbapi leg runs on its
    default private shared-memory database, so the SQL path is
    differentially pinned."""
    return [RelationIndex(relation, vocab), DbApiBackend(relation, vocab)]


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@given(engine_cases())
@settings(max_examples=60, deadline=None)
def test_backends_agree_on_execute_and_labels(case):
    n, mask_sets, seed = case
    rng = random.Random(seed)
    query = random_query(rng, n)
    relation = relation_from_masks(n, mask_sets)
    vocab = bool_vocabulary(n)
    engine = QueryEngine(relation, vocab)
    expected_keys = [o.key for o in engine.execute(query)]
    expected_labels = [engine.matches(query, o) for o in relation]
    for backend in _backends(relation, vocab):
        assert [o.key for o in backend.execute(query)] == expected_keys
        assert backend.matches_many(query) == expected_labels


@given(engine_cases())
@settings(max_examples=25, deadline=None)
def test_backends_agree_after_mutation(case):
    """The version/refresh contract: an insert is visible to both legs."""
    n, mask_sets, seed = case
    rng = random.Random(seed)
    query = random_query(rng, n)
    relation = relation_from_masks(n, mask_sets)
    vocab = bool_vocabulary(n)
    backends = _backends(relation, vocab)
    for backend in backends:
        backend.matches_many(query)  # build pre-mutation state
    relation.add_object(
        "late", rows=[{f"b{v + 1}": True for v in range(n)}]
    )
    engine = QueryEngine(relation, vocab)
    expected = [engine.matches(query, o) for o in relation]
    for backend in backends:
        assert backend.is_stale
        assert backend.matches_many(query) == expected


# ----------------------------------------------------------------------
# Seeded exhaustive sweep (the acceptance criterion's ≥ 1000 cases)
# ----------------------------------------------------------------------


def test_differential_thousand_cases_across_backends():
    rng = random.Random(20130624)  # PODS 2013 + 1: the backends sweep
    cases = 0
    for _ in range(1100):
        n = rng.randrange(1, 7)
        mask_sets = [
            frozenset(
                rng.randrange(1 << n) for _ in range(rng.randrange(0, 5))
            )
            for _ in range(rng.randrange(0, 7))
        ]
        query = random_query(rng, n)
        relation = relation_from_masks(n, mask_sets)
        vocab = bool_vocabulary(n)
        engine = QueryEngine(relation, vocab)
        expected_keys = [o.key for o in engine.execute(query)]
        expected_labels = [engine.matches(query, o) for o in relation]
        for backend in _backends(relation, vocab):
            assert [o.key for o in backend.execute(query)] == expected_keys, (
                type(backend).__name__,
                query.shorthand(),
            )
            assert backend.matches_many(query) == expected_labels, (
                type(backend).__name__,
                query.shorthand(),
            )
        cases += 1
    assert cases >= 1000


# ----------------------------------------------------------------------
# Word and byte boundaries, and degenerate shapes
# ----------------------------------------------------------------------


def test_backends_agree_at_word_packing_boundaries():
    """63/64/65 objects straddle a 64-bit word edge: the trailing
    partial word, an exactly-full word, and a second word — where a
    wrong all-objects mask would leak phantom objects through NOT.
    7/8/9 straddle the byte edge of the answer decoder behind every
    ``execute``."""
    rng = random.Random(6364)
    n = 4
    vocab = bool_vocabulary(n)
    for count in (7, 8, 9, 63, 64, 65, 127, 128, 129):
        mask_sets = [
            frozenset(
                rng.randrange(1 << n) for _ in range(rng.randrange(0, 4))
            )
            for _ in range(count)
        ]
        relation = relation_from_masks(n, mask_sets)
        engine = QueryEngine(relation, vocab)
        for _ in range(12):
            query = random_query(rng, n)
            expected_bits = engine.index.matching_bits(query)
            expected_keys = [o.key for o in engine.execute(query)]
            expected_labels = [engine.matches(query, o) for o in relation]
            assert len(expected_labels) == count
            for backend in _backends(relation, vocab):
                assert backend.matching_bits(query) == expected_bits, (
                    type(backend).__name__, count, query.shorthand(),
                )
                assert [o.key for o in backend.execute(query)] == (
                    expected_keys
                ), (type(backend).__name__, count, query.shorthand())
                assert backend.matches_many(query) == expected_labels, (
                    type(backend).__name__, count, query.shorthand(),
                )


def test_backends_agree_on_empty_and_all_false_relations():
    """Degenerate shapes: no objects at all, objects with no rows, and
    relations where every row abstracts to the all-false tuple (mask 0
    everywhere — every broadcast body-compare selects it, no head ever
    witnesses).  The empty relation decodes a zero-width answer bitset."""
    rng = random.Random(65)
    n = 3
    vocab = bool_vocabulary(n)
    shapes = {
        "empty relation": [],
        "row-less objects": [frozenset(), frozenset()],
        "all-false rows": [frozenset({0}) for _ in range(70)],
        "all-false plus row-less": [frozenset({0}), frozenset()] * 5,
    }
    for label, mask_sets in shapes.items():
        relation = relation_from_masks(n, mask_sets)
        engine = QueryEngine(relation, vocab)
        for _ in range(20):
            query = random_query(rng, n)
            expected_keys = [o.key for o in engine.execute(query)]
            expected = [engine.matches(query, o) for o in relation]
            for backend in _backends(relation, vocab):
                assert [o.key for o in backend.execute(query)] == (
                    expected_keys
                ), (type(backend).__name__, label, query.shorthand())
                assert backend.matches_many(query) == expected, (
                    type(backend).__name__, label, query.shorthand(),
                )


def test_dbapi_file_backed_store_agrees(tmp_path):
    """The SQL reference over a *file-backed* SQLite URI answers exactly
    like the index — the acceptance-criteria path of DESIGN.md §2i.
    The same file is reused across cases (tables drop and reload), so
    stale on-disk state from a previous case would be caught too."""
    rng = random.Random(9213)
    uri = f"file:{tmp_path}/prop-store.sqlite"
    checked = 0
    for _ in range(40):
        n = rng.randrange(1, 6)
        mask_sets = [
            frozenset(
                rng.randrange(1 << n) for _ in range(rng.randrange(0, 5))
            )
            for _ in range(rng.randrange(0, 8))
        ]
        relation = relation_from_masks(n, mask_sets)
        vocab = bool_vocabulary(n)
        bitmask = RelationIndex(relation, vocab)
        with DbApiBackend(relation, vocab, uri=uri) as dbapi:
            for _ in range(5):
                query = random_query(rng, n)
                assert dbapi.matching_bits(query) == (
                    bitmask.matching_bits(query)
                ), query.shorthand()
                assert dbapi.matches_many(query) == (
                    bitmask.matches_many(query)
                ), query.shorthand()
                checked += 1
    assert checked == 200
