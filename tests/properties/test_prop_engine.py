"""Differential properties: batch bitmask evaluation vs the seed path.

The batch subsystem (``CompiledQuery``, ``RelationIndex``,
``QueryEngine.execute_batch`` / ``matches_many``) must agree *exactly*
with the seed per-object reference path (``QhornQuery.evaluate`` over
``Vocabulary.abstract_object``) on every (query, relation) pair — that is
the batch-evaluation contract of DESIGN.md §2.  This suite checks it two
ways:

* hypothesis properties over random vocabularies, relations and general
  qhorn queries (universal, existential, bodyless, relaxed-guarantee and
  empty-object shapes all reachable);
* a seeded exhaustive sweep of ≥ 1000 random (query, relation) cases, so
  the agreement count demanded by the acceptance criteria is explicit.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import QhornQuery
from repro.data import (
    BoolIs,
    NestedRelation,
    QueryEngine,
    RelationIndex,
    Vocabulary,
)
from repro.data.schema import Attribute, FlatSchema, NestedSchema

MAX_N = 6

# ----------------------------------------------------------------------
# Builders: Boolean vocabularies and relations from raw mask sets
# ----------------------------------------------------------------------

_VOCABS: dict[int, Vocabulary] = {}
_SCHEMAS: dict[int, NestedSchema] = {}


def bool_vocabulary(n: int) -> Vocabulary:
    """``n`` independent BoolIs propositions over ``n`` boolean attributes
    (interference-free by construction); cached per ``n``."""
    if n not in _VOCABS:
        schema = FlatSchema(
            name=f"bools{n}",
            attributes=tuple(Attribute.boolean(f"b{i + 1}") for i in range(n)),
        )
        _VOCABS[n] = Vocabulary(
            schema, [BoolIs(f"b{i + 1}") for i in range(n)]
        )
        _SCHEMAS[n] = NestedSchema(name=f"objs{n}", embedded=schema)
    return _VOCABS[n]


def relation_from_masks(
    n: int, mask_sets: list[frozenset[int]]
) -> NestedRelation:
    """A nested relation whose object abstractions are exactly ``mask_sets``
    (one row per mask; empty sets give empty objects)."""
    bool_vocabulary(n)
    relation = NestedRelation(_SCHEMAS[n])
    for i, masks in enumerate(mask_sets):
        relation.add_object(
            f"obj-{i}",
            rows=[
                {f"b{v + 1}": bool(m >> v & 1) for v in range(n)}
                for m in sorted(masks)
            ],
        )
    return relation


def random_query(rng: random.Random, n: int) -> QhornQuery:
    """A general (not necessarily qhorn-1) query: random universal Horn
    expressions, random existential conjunctions, random guarantee mode."""
    universals = []
    for _ in range(rng.randrange(0, 4)):
        head = rng.randrange(n)
        others = [v for v in range(n) if v != head]
        body = rng.sample(others, rng.randrange(0, min(3, len(others)) + 1))
        universals.append((body, head))
    existentials = [
        rng.sample(range(n), rng.randrange(1, min(3, n) + 1))
        for _ in range(rng.randrange(0, 3))
    ]
    return QhornQuery.build(
        n,
        universals=universals,
        existentials=existentials,
        require_guarantees=rng.random() < 0.5,
    )


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def engine_cases(draw):
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    n_objects = draw(st.integers(min_value=0, max_value=6))
    mask_sets = [
        draw(
            st.frozensets(
                st.integers(min_value=0, max_value=(1 << n) - 1), max_size=5
            )
        )
        for _ in range(n_objects)
    ]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, mask_sets, seed


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@given(engine_cases())
def test_batch_execute_agrees_with_per_object(case):
    n, mask_sets, seed = case
    query = random_query(random.Random(seed), n)
    relation = relation_from_masks(n, mask_sets)
    engine = QueryEngine(relation, bool_vocabulary(n))
    per_object = [o.key for o in engine.execute(query)]
    batch = [o.key for o in engine.execute_batch(query)]
    assert batch == per_object


@given(engine_cases())
def test_matches_many_agrees_with_matches(case):
    n, mask_sets, seed = case
    query = random_query(random.Random(seed), n)
    relation = relation_from_masks(n, mask_sets)
    engine = QueryEngine(relation, bool_vocabulary(n))
    labels = engine.matches_many(query)
    assert labels == [engine.matches(query, o) for o in relation]


@given(engine_cases())
def test_compiled_query_agrees_with_reference_evaluate(case):
    n, mask_sets, seed = case
    query = random_query(random.Random(seed), n)
    compiled = query.compile()
    for masks in mask_sets:
        assert compiled.evaluate(masks) == query.evaluate(masks)


@given(engine_cases())
def test_explain_satisfaction_matches_evaluation(case):
    """`explain()` coherence, including the ``require_guarantees`` witness
    edge cases: the conjunction of per-expression satisfaction equals the
    object's classification on both paths."""
    n, mask_sets, seed = case
    query = random_query(random.Random(seed), n)
    relation = relation_from_masks(n, mask_sets)
    engine = QueryEngine(relation, bool_vocabulary(n))
    labels = engine.matches_many(query)
    for obj, label in zip(relation, labels):
        reports = engine.explain(query, obj)
        assert all(r.satisfied for r in reports) == label
        if query.require_guarantees:
            for r in reports:
                if r.detail == "guarantee clause has no witness tuple":
                    assert not r.satisfied


@given(engine_cases())
@settings(max_examples=25)
def test_index_refresh_after_insert(case):
    n, mask_sets, seed = case
    query = random_query(random.Random(seed), n)
    relation = relation_from_masks(n, mask_sets)
    engine = QueryEngine(relation, bool_vocabulary(n))
    engine.execute_batch(query)  # build the index before mutating
    relation.add_object(
        "late",
        rows=[{f"b{v + 1}": True for v in range(n)}],  # 1^n answers any query
    )
    assert engine.index.is_stale
    batch = [o.key for o in engine.execute_batch(query)]
    assert batch == [o.key for o in engine.execute(query)]
    assert "late" in batch


# ----------------------------------------------------------------------
# Seeded exhaustive sweep (the acceptance criterion's ≥ 1000 cases)
# ----------------------------------------------------------------------


def test_differential_thousand_cases():
    rng = random.Random(20130623)  # PODS 2013
    cases = 0
    for _ in range(1200):
        n = rng.randrange(1, MAX_N + 1)
        mask_sets = [
            frozenset(
                rng.randrange(1 << n) for _ in range(rng.randrange(0, 5))
            )
            for _ in range(rng.randrange(0, 7))
        ]
        query = random_query(rng, n)
        relation = relation_from_masks(n, mask_sets)
        engine = QueryEngine(relation, bool_vocabulary(n))
        per_object = [o.key for o in engine.execute(query)]
        assert [o.key for o in engine.execute_batch(query)] == per_object
        assert engine.matches_many(query) == [
            engine.matches(query, o) for o in relation
        ]
        compiled = query.compile()
        for masks in mask_sets:
            assert compiled.evaluate(masks) == query.evaluate(masks)
        cases += 1
    assert cases >= 1000


def test_standalone_index_matches_engine():
    """A standalone ``RelationIndex``, the engine's batch path and its
    per-object reference path give the same answers on the same seeded
    cases."""
    rng = random.Random(7)
    n = 4
    mask_sets = [
        frozenset(rng.randrange(1 << n) for _ in range(rng.randrange(0, 4)))
        for _ in range(10)
    ]
    relation = relation_from_masks(n, mask_sets)
    vocab = bool_vocabulary(n)
    index = RelationIndex(relation, vocab)
    engine = QueryEngine(relation, vocab)
    for _ in range(20):
        query = random_query(rng, n)
        expected = [o.key for o in engine.execute(query)]
        assert [o.key for o in index.execute(query)] == expected
        assert [o.key for o in engine.execute_batch(query)] == expected
    assert index.distinct_masks <= 1 << n
