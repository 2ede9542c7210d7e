"""Property-based tests: normalization soundness and Proposition 4.1."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalize import (
    brute_force_equivalent,
    canonicalize,
    dominant_conjunctions,
    dominant_universals,
    normalize,
    r3_closure,
)
from repro.core.query import QhornQuery
from repro.core.serialize import query_to_dict

from tests.properties.strategies import (
    qhorn1_queries,
    questions,
    role_preserving_queries,
    tiny_role_preserving_pairs,
)


@given(role_preserving_queries(max_n=4))
@settings(max_examples=60, deadline=None)
def test_normalization_preserves_semantics(query):
    """normalize(q) classifies every object exactly like q (brute force)."""
    assert brute_force_equivalent(query, normalize(query))


@given(role_preserving_queries())
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent(query):
    canon = canonicalize(query)
    assert canonicalize(canon.as_query()) == canon


@given(role_preserving_queries())
@settings(max_examples=60, deadline=None)
def test_dominant_universals_form_antichain_per_head(query):
    dom = dominant_universals(query)
    for a in dom:
        for b in dom:
            if a != b and a.head == b.head:
                assert not a.body < b.body
                assert not b.body < a.body


@given(role_preserving_queries())
@settings(max_examples=60, deadline=None)
def test_dominant_conjunctions_form_antichain(query):
    dom = dominant_conjunctions(query)
    for a in dom:
        for b in dom:
            if a != b:
                assert not a < b


@given(role_preserving_queries())
@settings(max_examples=60, deadline=None)
def test_conjunctions_are_r3_closed(query):
    canon = canonicalize(query)
    for c in canon.conjunctions:
        assert r3_closure(c, canon.universals) == c


@given(tiny_role_preserving_pairs())
@settings(max_examples=80, deadline=None)
def test_proposition_41(pair):
    """Canonical equality == semantic equality for role-preserving qhorn."""
    a, b = pair
    assert (canonicalize(a) == canonicalize(b)) == brute_force_equivalent(a, b)


@given(qhorn1_queries(max_n=4), questions(n=4))
@settings(max_examples=80, deadline=None)
def test_normalized_query_agrees_on_random_questions(query, question):
    if query.n != question.n:
        return
    assert query.evaluate(question) == normalize(query).evaluate(question)


@given(role_preserving_queries())
@settings(max_examples=40, deadline=None)
def test_all_true_always_answer(query):
    assert query.evaluate(query.all_true_question())


@given(role_preserving_queries())
@settings(max_examples=40, deadline=None)
def test_canonical_size_never_larger_than_pool(query):
    """Dominance only removes conjunctions, never invents them."""
    from repro.core.normalize import conjunction_pool

    canon = canonicalize(query)
    assert canon.conjunctions <= conjunction_pool(query)


@given(
    st.one_of(qhorn1_queries(max_n=8), role_preserving_queries(max_n=6)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_equal_queries_print_alike(query, rng):
    """Expressions sort by a total key, so a query rebuilt from its
    expressions in any order prints and serializes like the original
    (a subset order on frozensets let the output follow set iteration
    order, which depends on insertion order)."""
    universals = list(query.universals)
    existentials = list(query.existentials)
    rng.shuffle(universals)
    rng.shuffle(existentials)
    rebuilt = QhornQuery(
        query.n,
        frozenset(universals),
        frozenset(existentials),
        query.require_guarantees,
    )
    assert rebuilt == query
    assert rebuilt.shorthand() == query.shorthand()
    assert query_to_dict(rebuilt) == query_to_dict(query)
