"""Executing qhorn queries over nested relations, and rendering questions.

This is the database side of the paper: a :class:`QueryEngine` evaluates a
Boolean-domain :class:`~repro.core.query.QhornQuery` against real nested
data through a vocabulary, and an :class:`ExampleFactory` turns membership
questions into concrete example objects — synthesizing rows (assumption (i))
or, as §5 suggests for rich databases, selecting matching rows from an
actual relation.

The engine answers in two ways (DESIGN.md §2): the per-object
*reference path* (:meth:`QueryEngine.matches` /
:meth:`QueryEngine.execute`), which abstracts rows on every call, and
the *batch path* (:meth:`QueryEngine.execute_batch` /
:meth:`QueryEngine.matches_many`), which asks the engine's one
:class:`~repro.data.index.RelationIndex` and its bitmask kernel.  Both
return identical answers on identical state, and so does the SQL
reference, :class:`~repro.data.dbapi.DbApiBackend` (DESIGN.md §2c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.data.index import RelationIndex, check_width
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["ExpressionReport", "QueryEngine", "ExampleFactory"]


@dataclass(frozen=True)
class ExpressionReport:
    """Why one expression of a query holds or fails on an object."""

    expression: str
    satisfied: bool
    detail: str


class QueryEngine:
    """Evaluates queries over a nested relation via a vocabulary.

    The batch methods answer from one :class:`RelationIndex` over the
    relation, built on first use and rebuilt when the relation's version
    moves; the per-object methods keep the seed reference semantics.
    """

    def __init__(self, relation: NestedRelation, vocabulary: Vocabulary) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        self._index: RelationIndex | None = None

    @property
    def index(self) -> RelationIndex:
        """The engine's relation index, built on first access."""
        if self._index is None:
            self._index = RelationIndex(self.relation, self.vocabulary)
        return self._index

    #: The index under its older name, which ``perfbench/engine_scan.py``
    #: still reads (``engine.backend.refresh()``); it goes when that
    #: caller reads ``engine.index``.
    backend = index

    def matches(self, query: QhornQuery, obj: NestedObject) -> bool:
        """Does ``obj`` satisfy ``query``?  (Per-object reference path.)"""
        self._check(query)
        return query.evaluate(self.vocabulary.abstract_object(obj.rows))

    def execute(self, query: QhornQuery) -> list[NestedObject]:
        """All objects of the relation that are answers to ``query``.

        Per-object reference path: validates the query once, then
        re-abstracts each object's rows and evaluates directly (the seed
        re-ran the validation through ``matches()`` for every object).
        """
        self._check(query)
        abstract = self.vocabulary.abstract_object
        evaluate = query.evaluate
        return [o for o in self.relation if evaluate(abstract(o.rows))]

    def execute_batch(self, query: QhornQuery) -> list[NestedObject]:
        """All answers to ``query`` via the index.

        Identical answers to :meth:`execute`; the index amortizes row
        abstraction across calls (DESIGN.md §2).
        """
        return self.index.execute(query)

    def matches_many(self, query: QhornQuery) -> list[bool]:
        """Answer labels for every object of the relation, in relation
        order, via the index."""
        return self.index.matches_many(query)

    def explain(self, query: QhornQuery, obj: NestedObject) -> list[ExpressionReport]:
        """Per-expression satisfaction report for ``obj`` (UI affordance)."""
        self._check(query)
        tuples = self.vocabulary.abstract_object(obj.rows)
        reports: list[ExpressionReport] = []
        for u in sorted(query.universals):
            violating = [t for t in tuples if u.violated_by(t)]
            witness = any(
                (t & u.body_mask) == u.body_mask and t & u.head_mask
                for t in tuples
            )
            if violating:
                detail = f"{len(violating)} tuple(s) violate the implication"
            elif query.require_guarantees and not witness:
                detail = "guarantee clause has no witness tuple"
            else:
                detail = "holds on every tuple, witness present"
            reports.append(
                ExpressionReport(
                    expression=str(u),
                    satisfied=not violating
                    and (witness or not query.require_guarantees),
                    detail=detail,
                )
            )
        for e in sorted(query.existentials):
            sat = e.holds_on(tuples)
            reports.append(
                ExpressionReport(
                    expression=str(e),
                    satisfied=sat,
                    detail="witness tuple present" if sat else "no witness tuple",
                )
            )
        return reports

    def _check(self, query: QhornQuery) -> None:
        check_width(query, self.vocabulary)


class ExampleFactory:
    """Turns Boolean membership questions into concrete example objects."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        database: NestedRelation | None = None,
        key_prefix: str = "example",
    ) -> None:
        self.vocabulary = vocabulary
        self.database = database
        self.key_prefix = key_prefix
        self._counter = 0
        self._row_index: dict[int, list[dict[str, Any]]] | None = None
        self._row_index_version: int | None = None

    def _next_key(self) -> str:
        self._counter += 1
        return f"{self.key_prefix}-{self._counter}"

    def refresh(self) -> None:
        """Drop the mask→rows index so the next question rebuilds it.

        Only needed after mutating database rows in place; plain
        ``insert``/``add_object`` calls bump the relation's ``version``
        counter and invalidate the index automatically.
        """
        self._row_index = None
        self._row_index_version = None

    def _database_index(self) -> dict[int, list[dict[str, Any]]]:
        version = getattr(self.database, "version", None)
        if self._row_index is None or version != self._row_index_version:
            index: dict[int, list[dict[str, Any]]] = {}
            for row in self.database.all_rows():
                mask = self.vocabulary.boolean_tuple(row)
                index.setdefault(mask, []).append(row)
            self._row_index = index
            self._row_index_version = version
        return self._row_index

    def synthesize(self, question: Question) -> NestedObject:
        """Assumption (i): build rows directly from the Boolean tuples."""
        rows = self.vocabulary.synthesize_object(question)
        return NestedObject(key=self._next_key(), rows=rows)

    def from_database(self, question: Question) -> NestedObject:
        """§5: prefer real database rows matching each Boolean tuple, so the
        user never sees artificial hybrids; falls back to synthesis for
        tuples the database cannot exhibit."""
        if self.database is None:
            return self.synthesize(question)
        row_index = self._database_index()
        rows: list[dict[str, Any]] = []
        for t in question.sorted_tuples():
            matches = row_index.get(t)
            if matches:
                rows.append(dict(matches[0]))
            else:
                rows.append(self.vocabulary.synthesize_row(t))
        return NestedObject(key=self._next_key(), rows=rows)
