"""Tests for SQL compilation and its evaluation on the dbapi backend."""

from __future__ import annotations

import random

import pytest

from repro.core.generators import random_role_preserving
from repro.core.parser import parse_query
from repro.data import DbApiBackend, QueryEngine
from repro.data.chocolate import (
    paper_figure1_relation,
    paper_vocabulary,
    random_store,
    storefront_vocabulary,
)
from repro.data.propositions import (
    Between,
    BoolIs,
    Equals,
    GreaterThan,
    LessThan,
    OneOf,
    Vocabulary,
)
from repro.data.schema import Attribute, FlatSchema
from repro.data.sql import (
    DIALECTS,
    POSTGRES_DIALECT,
    SQLITE_DIALECT,
    SqlCompileError,
    get_dialect,
    proposition_to_sql,
    to_sql,
)


class TestPropositionRendering:
    def test_bool_is(self):
        assert proposition_to_sql(BoolIs("isDark")) == "r.isDark = 1"
        assert proposition_to_sql(BoolIs("isDark", value=False)) == (
            "r.isDark = 0"
        )

    def test_equals_escapes_quotes(self):
        sql = proposition_to_sql(Equals("origin", "O'Hare"))
        assert sql == "r.origin = 'O''Hare'"

    def test_one_of(self):
        sql = proposition_to_sql(OneOf("origin", {"Belgium", "Sweden"}))
        assert sql == "r.origin IN ('Belgium', 'Sweden')"

    def test_comparisons(self):
        assert proposition_to_sql(LessThan("count", 5)) == "r.count < 5"
        assert proposition_to_sql(GreaterThan("count", 5)) == "r.count > 5"
        assert (
            proposition_to_sql(Between("count", 1, 3))
            == "r.count BETWEEN 1 AND 3"
        )

    def test_unknown_proposition_rejected(self):
        class Weird(BoolIs):
            pass

        class NotAProp:
            attribute = "isDark"

        with pytest.raises(SqlCompileError):
            proposition_to_sql(NotAProp())  # type: ignore[arg-type]


class TestToSql:
    def test_universal_becomes_not_exists_plus_guarantee(self):
        sql = to_sql(parse_query("∀x1", n=3), paper_vocabulary())
        assert "NOT EXISTS" in sql
        assert sql.count("EXISTS") == 2  # NOT EXISTS + guarantee witness

    def test_guarantee_relaxation_drops_witness(self):
        q = parse_query("∀x1", n=3, require_guarantees=False)
        sql = to_sql(q, paper_vocabulary())
        assert sql.count("EXISTS") == 1

    def test_existential_becomes_exists(self):
        sql = to_sql(parse_query("∃x2x3", n=3), paper_vocabulary())
        assert "NOT EXISTS" not in sql
        assert "hasFilling = 1" in sql and "origin = 'Madagascar'" in sql

    def test_width_mismatch_rejected(self):
        with pytest.raises(SqlCompileError):
            to_sql(parse_query("∃x1x2x3x4"), paper_vocabulary())


class TestDialects:
    """Golden renderings: the same proposition/query per dialect.

    The SQLite dialect must reproduce the PR 3 output byte for byte
    (statement caches and learn transcripts depend on it); the postgres
    dialect makes the spelling differences — boolean literals, reserved
    ``rows``, %s placeholders — observable."""

    def test_bool_is_per_dialect(self):
        prop = BoolIs("isDark")
        assert proposition_to_sql(prop, dialect="sqlite") == "r.isDark = 1"
        assert (
            proposition_to_sql(prop, dialect="postgres") == "r.isDark = TRUE"
        )
        assert (
            proposition_to_sql(BoolIs("isDark", value=False), dialect="postgres")
            == "r.isDark = FALSE"
        )

    def test_reserved_identifier_quoting(self):
        assert SQLITE_DIALECT.identifier("rows") == "rows"
        assert POSTGRES_DIALECT.identifier("rows") == '"rows"'
        assert POSTGRES_DIALECT.identifier("origin") == "origin"
        # Non-plain identifiers are quoted everywhere.
        assert SQLITE_DIALECT.identifier("two words") == '"two words"'
        assert POSTGRES_DIALECT.identifier('odd"name') == '"odd""name"'

    def test_placeholder_styles(self):
        assert SQLITE_DIALECT.placeholders(["a", "b"]) == "?, ?"
        assert POSTGRES_DIALECT.placeholders(["a", "b"]) == "%s, %s"
        pyformat = SQLITE_DIALECT.__class__(
            name="py", paramstyle="pyformat"
        )
        assert pyformat.placeholders(["a", "b"]) == "%(a)s, %(b)s"
        broken = SQLITE_DIALECT.__class__(name="x", paramstyle="numeric")
        with pytest.raises(SqlCompileError, match="paramstyle"):
            broken.placeholder(0)

    def test_column_type_mapping(self):
        from repro.data.schema import AttributeType

        assert SQLITE_DIALECT.column_type(AttributeType.BOOLEAN) == "INTEGER"
        assert POSTGRES_DIALECT.column_type(AttributeType.BOOLEAN) == "BOOLEAN"
        assert SQLITE_DIALECT.column_type(AttributeType.FLOAT) == "REAL"
        assert (
            POSTGRES_DIALECT.column_type(AttributeType.FLOAT)
            == "DOUBLE PRECISION"
        )

    def test_to_sql_golden_per_dialect(self):
        query = parse_query("∀x1→x2", n=3, require_guarantees=False)
        vocab = paper_vocabulary()
        sqlite_sql = to_sql(query, vocab, dialect="sqlite")
        assert sqlite_sql == (
            "SELECT o.object_key FROM objects o\n"
            "WHERE NOT EXISTS (SELECT 1 FROM rows r "
            "WHERE r.object_key = o.object_key AND r.isDark = 1 "
            "AND NOT (r.hasFilling = 1))\n"
            "ORDER BY o.object_key"
        )
        # Default dialect is byte-identical to the explicit sqlite one.
        assert to_sql(query, vocab) == sqlite_sql
        postgres_sql = to_sql(query, vocab, dialect="postgres")
        assert '"rows" r' in postgres_sql
        assert "r.isDark = TRUE" in postgres_sql
        assert "NOT (r.hasFilling = TRUE)" in postgres_sql

    def test_one_of_rendering_per_dialect(self):
        prop = OneOf("origin", {"Belgium", "O'Hare"})
        for name in DIALECTS:
            assert proposition_to_sql(prop, dialect=name) == (
                "r.origin IN ('Belgium', 'O''Hare')"
            )

    def test_get_dialect_resolution(self):
        assert get_dialect(None) is SQLITE_DIALECT
        assert get_dialect("postgres") is POSTGRES_DIALECT
        assert get_dialect(POSTGRES_DIALECT) is POSTGRES_DIALECT
        with pytest.raises(SqlCompileError, match="unknown SQL dialect"):
            get_dialect("oracle9i")


def _keys(backend, query):
    """Answer keys, sorted, through one SQL round trip."""
    return sorted(o.key for o in backend.execute(query))


class TestSqlEvaluation:
    def test_fig1_boxes(self):
        with DbApiBackend(
            paper_figure1_relation(), paper_vocabulary()
        ) as backend:
            assert _keys(backend, parse_query("∀x1 ∃x2x3")) == []
            # every box has a dark chocolate
            assert _keys(backend, parse_query("∃x1", n=3)) == [
                "Europe's Finest",
                "Global Ground",
            ]

    def test_context_manager(self):
        with DbApiBackend(
            paper_figure1_relation(), paper_vocabulary()
        ) as backend:
            assert backend.execute(parse_query("∃x1", n=3))
        with pytest.raises(RuntimeError, match="closed"):
            backend.pool.acquire()

    def test_cross_check_against_memory_engine(self):
        """The two evaluators must agree on every random query."""
        store = random_store(60, random.Random(31))
        vocab = storefront_vocabulary()
        memory = QueryEngine(store, vocab)
        rng = random.Random(17)
        with DbApiBackend(store, vocab) as backend:
            for _ in range(40):
                q = random_role_preserving(4, rng, theta=2)
                assert _keys(backend, q) == _keys(memory, q), q.shorthand()

    def test_cross_check_with_numeric_vocabulary(self):
        schema = FlatSchema(
            "Reading",
            (
                Attribute.integer("count"),
                Attribute.category("kind", ("a", "b")),
                Attribute.boolean("flag"),
            ),
        )
        vocab = Vocabulary(
            schema,
            [
                LessThan("count", 5),
                OneOf("kind", {"a"}),
                BoolIs("flag"),
            ],
        )
        from repro.data.relation import NestedRelation
        from repro.data.schema import NestedSchema

        relation = NestedRelation(NestedSchema("Batch", embedded=schema))
        rng = random.Random(4)
        for i in range(30):
            rows = [
                dict(
                    count=rng.randint(0, 9),
                    kind=rng.choice(["a", "b"]),
                    flag=rng.random() < 0.5,
                )
                for _ in range(rng.randint(1, 5))
            ]
            relation.add_object(f"batch-{i:02d}", rows=rows)
        memory = QueryEngine(relation, vocab)
        with DbApiBackend(relation, vocab) as backend:
            for _ in range(30):
                q = random_role_preserving(3, rng, theta=1)
                assert _keys(backend, q) == _keys(memory, q)

    def test_empty_query_matches_everything(self):
        from repro.core.query import QhornQuery

        store = random_store(5, random.Random(2))
        with DbApiBackend(store, storefront_vocabulary()) as backend:
            q = QhornQuery(n=4)
            assert len(backend.execute(q)) == 5


class TestSqlEdgeCases:
    """Edge cases of the SQL translation, cross-checked against both
    bitmask backends (single-index and sharded): empty nested sets,
    all-false vocabulary rows, and guarantee-clause queries."""

    def _vocab_and_relation(self, objects):
        """A 3-proposition boolean domain with the given mask lists."""
        from repro.data.relation import NestedRelation
        from repro.data.schema import NestedSchema

        schema = FlatSchema(
            "bools",
            (
                Attribute.boolean("b1"),
                Attribute.boolean("b2"),
                Attribute.boolean("b3"),
            ),
        )
        vocab = Vocabulary(
            schema, [BoolIs("b1"), BoolIs("b2"), BoolIs("b3")]
        )
        relation = NestedRelation(NestedSchema("objs", embedded=schema))
        for i, masks in enumerate(objects):
            relation.add_object(
                f"obj-{i}",
                rows=[
                    {"b1": bool(m & 1), "b2": bool(m & 2), "b3": bool(m & 4)}
                    for m in masks
                ],
            )
        return vocab, relation

    def _cross_check(self, vocab, relation, queries):
        from repro.data import QueryEngine
        from repro.data.backends import create

        reference = QueryEngine(relation, vocab)
        bitmask = create("bitmask", relation, vocab)
        sharded = create("sharded", relation, vocab, shard_size=2)
        with DbApiBackend(relation, vocab) as sql_backend:
            for q in queries:
                expected = _keys(reference, q)
                assert _keys(sql_backend, q) == expected, q.shorthand()
                assert sorted(
                    o.key for o in bitmask.execute(q)
                ) == expected, q.shorthand()
                assert sorted(
                    o.key for o in sharded.execute(q)
                ) == expected, q.shorthand()

    def _query_zoo(self):
        from repro.core.query import QhornQuery

        return [
            # guarantee-clause queries: witness demanded per universal
            parse_query("∀x1", n=3),
            parse_query("∀x1→x2", n=3),
            parse_query("∀x1x2→x3", n=3),
            # the footnote-1 relaxation of the same shapes
            parse_query("∀x1", n=3, require_guarantees=False),
            parse_query("∀x1→x2", n=3, require_guarantees=False),
            # existentials and combinations
            parse_query("∃x1x2x3"),
            parse_query("∀x1 ∃x2x3"),
            QhornQuery(n=3),  # empty query
        ]

    def test_empty_nested_sets(self):
        """Objects with zero rows: universals hold vacuously only under the
        relaxation; guarantee clauses and existentials always fail."""
        vocab, relation = self._vocab_and_relation(
            [[], [7], [], [1, 2], []]
        )
        self._cross_check(vocab, relation, self._query_zoo())

    def test_all_false_vocabulary_rows(self):
        """Rows where every proposition is false (mask 0): never witnesses,
        violate any universal with an empty body, satisfy none."""
        vocab, relation = self._vocab_and_relation(
            [[0], [0, 0], [0, 7], [0, 1], [3, 0, 5]]
        )
        self._cross_check(vocab, relation, self._query_zoo())

    def test_guarantee_vs_relaxed_disagree_exactly_on_witnessless_objects(self):
        """An object whose rows never satisfy the body is an answer only
        without the guarantee clause — all four evaluators must place the
        boundary identically."""
        from repro.data import QueryEngine

        vocab, relation = self._vocab_and_relation(
            [[], [0], [2], [1, 3], [3]]
        )
        strict = parse_query("∀x1→x2", n=3)
        relaxed = parse_query("∀x1→x2", n=3, require_guarantees=False)
        reference = QueryEngine(relation, vocab)
        with DbApiBackend(relation, vocab) as sql_backend:
            strict_keys = _keys(sql_backend, strict)
            relaxed_keys = _keys(sql_backend, relaxed)
        assert strict_keys == _keys(reference, strict)
        assert relaxed_keys == _keys(reference, relaxed)
        # obj-0 (empty), obj-1 (all-false row) and obj-2 (head-only row)
        # have no body-satisfying row: answers only under relaxation.
        assert set(relaxed_keys) - set(strict_keys) == {
            "obj-0",
            "obj-1",
            "obj-2",
        }

    def test_mixed_edge_relation_random_queries(self):
        """Seeded sweep over a relation mixing every edge shape at once."""
        from tests.properties.test_prop_engine import random_query

        vocab, relation = self._vocab_and_relation(
            [[], [0], [7], [0, 7], [1, 2, 4], [], [5], [0, 0], [6, 6]]
        )
        rng = random.Random(2013)
        queries = [random_query(rng, 3) for _ in range(60)]
        self._cross_check(vocab, relation, queries)
