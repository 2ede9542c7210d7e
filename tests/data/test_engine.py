"""Tests for the query engine and example factory over nested data."""

from __future__ import annotations

import random

import pytest

from repro.core.parser import parse_query
from repro.core.tuples import Question
from repro.data import ExampleFactory, QueryEngine
from repro.data.chocolate import (
    intro_query,
    paper_figure1_relation,
    paper_vocabulary,
    random_store,
    storefront_vocabulary,
)


class TestQueryEngine:
    def test_paper_query_on_fig1_boxes(self):
        """§2's query (1): every chocolate dark, some filled Madagascar."""
        engine = QueryEngine(paper_figure1_relation(), paper_vocabulary())
        query = parse_query("∀x1 ∃x2x3")
        answers = engine.execute(query)
        # Global Ground has a white chocolate; Europe's Finest lacks a
        # filled Madagascar chocolate: neither box matches.
        assert answers == []

    def test_matching_box(self):
        rel = paper_figure1_relation()
        rel.add_object(
            "Madagascar Select",
            rows=[
                dict(origin="Madagascar", isSugarFree=True, isDark=True,
                     hasFilling=True, hasNuts=False),
            ],
        )
        engine = QueryEngine(rel, paper_vocabulary())
        answers = engine.execute(parse_query("∀x1 ∃x2x3"))
        assert [o.key for o in answers] == ["Madagascar Select"]

    def test_intro_scenario_counts(self):
        store = random_store(60)
        engine = QueryEngine(store, storefront_vocabulary())
        answers = engine.execute(intro_query())
        for box in answers:
            assert all(r["isDark"] for r in box.rows)
            assert any(
                r["isDark"] and r["isSugarFree"] and r["hasNuts"]
                for r in box.rows
            )

    def test_width_mismatch_rejected(self):
        engine = QueryEngine(paper_figure1_relation(), paper_vocabulary())
        with pytest.raises(ValueError):
            engine.execute(parse_query("∃x1x2x3x4"))

    def test_explain_reports_every_expression(self):
        engine = QueryEngine(paper_figure1_relation(), paper_vocabulary())
        query = parse_query("∀x1 ∃x2x3")
        box = paper_figure1_relation().get("Global Ground")
        reports = engine.explain(query, box)
        assert len(reports) == 2
        by_expr = {r.expression: r for r in reports}
        assert not by_expr["∀x1"].satisfied  # white chocolate present
        assert by_expr["∃x2x3"].satisfied  # Madagascar filled exists

    def test_explain_guarantee_detail(self):
        engine = QueryEngine(paper_figure1_relation(), paper_vocabulary())
        query = parse_query("∀x2→x1", n=3)
        box = paper_figure1_relation().get("Europe's Finest")
        reports = engine.explain(query, box)
        # Europe's Finest: 100 and 110 -> implication holds, witness 110.
        assert reports[0].satisfied


class TestBatchEngine:
    def test_execute_batch_matches_execute(self):
        store = random_store(80, random.Random(3))
        engine = QueryEngine(store, storefront_vocabulary())
        for shorthand in ("∀x1 ∃x1x2x3", "∀x2→x1", "∃x3x4", "∀x1x2→x4 ∃x3"):
            query = parse_query(shorthand, n=4)
            answers = engine.execute_batch(query)
            assert [o.key for o in answers] == [
                o.key for o in engine.execute(query)
            ]
            # A plain list of the relation's own objects, not copies.
            assert type(answers) is list
            assert all(store.get(o.key) is o for o in answers)

    def test_matches_many_whole_relation(self):
        store = random_store(40, random.Random(4))
        engine = QueryEngine(store, storefront_vocabulary())
        labels = engine.matches_many(intro_query())
        assert labels == [engine.matches(intro_query(), o) for o in store]

    def test_index_auto_refresh_on_insert(self):
        rel = paper_figure1_relation()
        engine = QueryEngine(rel, paper_vocabulary())
        query = parse_query("∀x1 ∃x2x3")
        assert engine.execute_batch(query) == []
        added = rel.add_object(
            "Madagascar Select",
            rows=[
                dict(origin="Madagascar", isSugarFree=True, isDark=True,
                     hasFilling=True, hasNuts=False),
            ],
        )
        assert engine.index.is_stale
        answers = engine.execute_batch(query)
        assert [o.key for o in answers] == ["Madagascar Select"]
        # The rebuilt object array serves the inserted object itself.
        assert type(answers) is list
        assert answers[0] is added
        assert not engine.index.is_stale

    def test_batch_width_mismatch_rejected(self):
        engine = QueryEngine(paper_figure1_relation(), paper_vocabulary())
        with pytest.raises(ValueError):
            engine.execute_batch(parse_query("∃x1x2x3x4"))
        with pytest.raises(ValueError):
            engine.matches_many(parse_query("∃x1x2x3x4"))

    def test_execute_validates_once(self, monkeypatch):
        engine = QueryEngine(random_store(20), storefront_vocabulary())
        calls = []
        original = QueryEngine._check
        monkeypatch.setattr(
            QueryEngine,
            "_check",
            lambda self, query: (calls.append(1), original(self, query))[1],
        )
        engine.execute(intro_query())
        assert len(calls) == 1


class TestExampleFactory:
    def test_synthesize_matches_question(self):
        vocab = paper_vocabulary()
        factory = ExampleFactory(vocab)
        q = Question.from_strings("111", "011", "000")
        obj = factory.synthesize(q)
        assert vocab.abstract_object(obj.rows) == q.tuples
        assert len(obj.rows) == 3

    def test_keys_unique(self):
        factory = ExampleFactory(paper_vocabulary())
        q = Question.from_strings("111")
        assert factory.synthesize(q).key != factory.synthesize(q).key

    def test_from_database_prefers_real_rows(self):
        vocab = paper_vocabulary()
        store = paper_figure1_relation()
        factory = ExampleFactory(vocab, database=store)
        q = Question.from_strings("111", "000")
        obj = factory.from_database(q)
        assert vocab.abstract_object(obj.rows) == q.tuples
        # both tuples exist in Fig. 1's data, so rows come from the store
        store_rows = [tuple(sorted(r.items())) for r in store.all_rows()]
        for row in obj.rows:
            assert tuple(sorted(row.items())) in store_rows

    def test_from_database_falls_back_to_synthesis(self):
        vocab = paper_vocabulary()
        store = paper_figure1_relation()
        factory = ExampleFactory(vocab, database=store)
        q = Question.from_strings("101")  # no such chocolate in Fig. 1
        obj = factory.from_database(q)
        assert vocab.abstract_object(obj.rows) == q.tuples

    def test_no_database_degrades_to_synthesis(self):
        factory = ExampleFactory(paper_vocabulary(), database=None)
        q = Question.from_strings("110")
        obj = factory.from_database(q)
        assert paper_vocabulary().abstract_object(obj.rows) == q.tuples

    def test_from_database_sees_rows_inserted_later(self):
        """Regression: the mask→rows index was built lazily once and never
        invalidated, so objects appended after the first ``from_database``
        call were silently ignored."""
        vocab = paper_vocabulary()
        store = paper_figure1_relation()
        factory = ExampleFactory(vocab, database=store)
        q = Question.from_strings("101")  # no such chocolate in Fig. 1 yet
        factory.from_database(q)  # builds the index without 101
        late_row = dict(origin="Madagascar", isSugarFree=False, isDark=True,
                        hasFilling=False, hasNuts=True)
        assert vocab.boolean_tuple(late_row) == Question.from_strings(
            "101"
        ).sorted_tuples()[0]
        store.add_object("Late Arrival", rows=[late_row])
        obj = factory.from_database(q)
        assert obj.rows == [late_row]  # the real row, not a synthetic one

    def test_refresh_forces_reindex_after_inplace_edit(self):
        vocab = paper_vocabulary()
        store = paper_figure1_relation()
        factory = ExampleFactory(vocab, database=store)
        q = Question.from_strings("101")
        factory.from_database(q)
        # In-place row mutation bypasses the version counter...
        target = store.get("Global Ground")
        target.rows.append(
            dict(origin="Madagascar", isSugarFree=False, isDark=True,
                 hasFilling=False, hasNuts=True)
        )
        # ...so an explicit refresh is required to pick it up.
        factory.refresh()
        obj = factory.from_database(q)
        assert obj.rows == [target.rows[-1]]
