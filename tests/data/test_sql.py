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
    SqlCompileError,
    column_type,
    identifier,
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


class TestSqliteSpelling:
    """Golden renderings of the one SQL spelling, SQLite's: the query
    text, the loader's statements, identifier quoting and literal
    escaping must stay byte for byte what statement caches were built
    on."""

    def test_identifier_quoting(self):
        # SQLite accepts keyword-ish names such as ``rows`` bare.
        assert identifier("rows") == "rows"
        assert identifier("origin") == "origin"
        # Non-plain identifiers are quoted, embedded quotes doubled.
        assert identifier("two words") == '"two words"'
        assert identifier('odd"name') == '"odd""name"'

    def test_loader_statements(self):
        """The dbapi backend's table loader emits qmark placeholders and
        SQLite column types, statement for statement."""
        import sqlite3

        statements = []

        class Cursor(sqlite3.Cursor):
            def execute(self, sql, *params):
                statements.append(sql)
                return super().execute(sql, *params)

        class Connection(sqlite3.Connection):
            def cursor(self, factory=Cursor):
                return super().cursor(factory)

        def connect():
            return sqlite3.connect(":memory:", factory=Connection)

        backend = DbApiBackend(
            paper_figure1_relation(), paper_vocabulary(), connect=connect
        )
        try:
            backend.refresh()
            assert statements == [
                "DROP TABLE IF EXISTS rows",
                "DROP TABLE IF EXISTS objects",
                "CREATE TABLE objects (object_key TEXT PRIMARY KEY, "
                "name TEXT)",
                "CREATE TABLE rows (object_key TEXT REFERENCES objects, "
                "isDark INTEGER, hasFilling INTEGER, isSugarFree INTEGER, "
                "hasNuts INTEGER, origin TEXT)",
                "CREATE INDEX rows_by_object ON rows (object_key)",
            ] + (
                ["INSERT INTO objects VALUES (?, ?)"]
                + ["INSERT INTO rows VALUES (?, ?, ?, ?, ?, ?)"] * 3
            ) * 2
        finally:
            backend.close()

    def test_column_type_mapping(self):
        from repro.data.schema import AttributeType

        assert column_type(AttributeType.BOOLEAN) == "INTEGER"
        assert column_type(AttributeType.INTEGER) == "INTEGER"
        assert column_type(AttributeType.FLOAT) == "REAL"
        assert column_type(AttributeType.CATEGORY) == "TEXT"

    def test_to_sql_golden(self):
        query = parse_query("∀x1→x2", n=3, require_guarantees=False)
        assert to_sql(query, paper_vocabulary()) == (
            "SELECT o.object_key FROM objects o\n"
            "WHERE NOT EXISTS (SELECT 1 FROM rows r "
            "WHERE r.object_key = o.object_key AND r.isDark = 1 "
            "AND NOT (r.hasFilling = 1))\n"
            "ORDER BY o.object_key"
        )

    def test_one_of_escaping(self):
        prop = OneOf("origin", {"Belgium", "O'Hare"})
        assert proposition_to_sql(prop) == (
            "r.origin IN ('Belgium', 'O''Hare')"
        )


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
            backend.execute(parse_query("∃x1", n=3))

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
    """Edge cases of the SQL translation, cross-checked against the
    bitmask backend: empty nested sets, all-false vocabulary rows, and
    guarantee-clause queries."""

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
        from repro.data import QueryEngine, RelationIndex

        reference = QueryEngine(relation, vocab)
        bitmask = RelationIndex(relation, vocab)
        with DbApiBackend(relation, vocab) as sql_backend:
            for q in queries:
                expected = _keys(reference, q)
                assert _keys(sql_backend, q) == expected, q.shorthand()
                assert sorted(
                    o.key for o in bitmask.execute(q)
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
