"""Property-based tests for the extension modules (revision, serialize,
SQL compilation, expression questions)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalize import canonicalize
from repro.core.serialize import (
    query_from_dict,
    query_from_json,
    query_to_dict,
    query_to_json,
)
from repro.learning import revise_query
from repro.learning.expression_learner import ExpressionLearner
from repro.oracle import QueryOracle
from repro.oracle.expression import ExpressionOracle

from tests.properties.strategies import (
    qhorn1_queries,
    role_preserving_queries,
)


@given(qhorn1_queries())
@settings(max_examples=60, deadline=None)
def test_serialize_roundtrip_preserves_structure(query):
    again = query_from_dict(query_to_dict(query))
    assert again.universals == query.universals
    assert again.existentials == query.existentials
    assert again.n == query.n


@given(role_preserving_queries())
@settings(max_examples=40, deadline=None)
def test_serialize_json_roundtrip_semantics(query):
    assert canonicalize(query_from_json(query_to_json(query))) == (
        canonicalize(query)
    )


@given(role_preserving_queries(max_n=7), role_preserving_queries(max_n=7))
@settings(max_examples=40, deadline=None)
def test_revision_always_lands_on_intent(given_q, intended):
    if given_q.n != intended.n:
        return
    result = revise_query(given_q, QueryOracle(intended))
    assert canonicalize(result.query) == canonicalize(intended)


@given(role_preserving_queries(max_n=7))
@settings(max_examples=40, deadline=None)
def test_revision_of_self_never_changes(query):
    result = revise_query(query, QueryOracle(query))
    assert not result.changed
    assert canonicalize(result.query) == canonicalize(query)


@given(role_preserving_queries(max_n=7))
@settings(max_examples=40, deadline=None)
def test_expression_learner_matches_membership_learner(target):
    from repro.learning import RolePreservingLearner

    via_expr = ExpressionLearner(ExpressionOracle(target)).learn().query
    via_member = RolePreservingLearner(QueryOracle(target)).learn().query
    assert canonicalize(via_expr) == canonicalize(via_member)


@given(role_preserving_queries(max_n=5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sql_engine_agrees_with_memory_engine(query, seed):
    from repro.data import DbApiBackend, QueryEngine
    from repro.data.propositions import BoolIs, Vocabulary
    from repro.data.schema import Attribute, FlatSchema, NestedSchema
    from repro.data.relation import NestedRelation

    n = query.n
    schema = FlatSchema(
        "T", tuple(Attribute.boolean(f"p{i}") for i in range(n))
    )
    vocab = Vocabulary(schema, [BoolIs(f"p{i}") for i in range(n)])
    relation = NestedRelation(NestedSchema("O", embedded=schema))
    rng = random.Random(seed)
    for i in range(12):
        rows = [
            {f"p{j}": rng.random() < 0.5 for j in range(n)}
            for _ in range(rng.randint(1, 4))
        ]
        relation.add_object(f"o{i}", rows=rows)
    memory = QueryEngine(relation, vocab)
    with DbApiBackend(relation, vocab) as db:
        assert [o.key for o in db.execute(query)] == [
            o.key for o in memory.execute(query)
        ]
