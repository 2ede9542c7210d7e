"""Executing qhorn queries over nested relations, and rendering questions.

This is the database side of the paper: a :class:`QueryEngine` evaluates a
Boolean-domain :class:`~repro.core.query.QhornQuery` against real nested
data through a vocabulary, and an :class:`ExampleFactory` turns membership
questions into concrete example objects — synthesizing rows (assumption (i))
or, as §5 suggests for rich databases, selecting matching rows from an
actual relation.

Two evaluation paths coexist (DESIGN.md §2): the per-object *reference
path* (:meth:`QueryEngine.matches` / :meth:`QueryEngine.execute`), which
abstracts rows on every call, and the *batch path*
(:meth:`QueryEngine.execute_batch` / :meth:`QueryEngine.matches_many`),
which dispatches to an :class:`~repro.data.backends.EvaluationBackend`
(DESIGN.md §2c) — the bitmask index on the one bitmask kernel,
:class:`~repro.data.index.BitsetKernel`, or SQL batch execution.  Both
backends must return identical answers on identical state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.data.backends import (
    BitmaskBackend,
    EvaluationBackend,
    backend_class,
    create,
)
from repro.data.backends.base import check_width
from repro.data.index import RelationIndex
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

    The batch evaluation methods dispatch to an
    :class:`~repro.data.backends.EvaluationBackend` (``backend=`` accepts
    a backend name — ``"bitmask"`` or ``"dbapi"`` — or a constructed
    backend instance; backends build lazily on first batch call).  The
    per-object methods keep the seed reference semantics regardless of
    backend.
    """

    def __init__(
        self,
        relation: NestedRelation,
        vocabulary: Vocabulary,
        backend: str | EvaluationBackend = "bitmask",
        backend_options: dict[str, Any] | None = None,
    ) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        if isinstance(backend, str):
            # Validate the name eagerly (fail at construction, not first
            # batch call) but build the backend lazily.
            self._backend: EvaluationBackend | None = None
            self._backend_spec = backend
            self._backend_options = dict(backend_options or {})
            backend_class(backend)
        else:
            if backend.relation is not relation:
                raise ValueError(
                    "backend was built over a different relation"
                )
            if backend_options:
                raise ValueError(
                    "backend_options only apply when the backend is "
                    "selected by name; configure the instance directly"
                )
            self._backend = backend
            self._backend_spec = backend.name
            self._backend_options = {}

    @property
    def backend(self) -> EvaluationBackend:
        """The engine's evaluation backend, built on first access."""
        if self._backend is None:
            self._backend = create(
                self._backend_spec,
                self.relation,
                self.vocabulary,
                **self._backend_options,
            )
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the active backend (without building it)."""
        return self._backend_spec

    @property
    def index(self) -> RelationIndex:
        """The engine's bitmask relation index, built on first access.

        For the bitmask backend this *is* the evaluation structure; for
        the dbapi backend it is an introspection view (mask statistics)
        built independently of the answering path.
        """
        backend = self.backend
        if isinstance(backend, BitmaskBackend):
            return backend.index
        if getattr(self, "_intro_index", None) is None:
            self._intro_index = RelationIndex(self.relation, self.vocabulary)
        return self._intro_index

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
        """All answers to ``query`` via the evaluation backend.

        Identical answers to :meth:`execute` whatever the backend; the
        backend amortizes row abstraction (or database loading) across
        calls (DESIGN.md §2, §2c).
        """
        self._check(query)
        return self.backend.execute(query)

    def matches_many(self, query: QhornQuery) -> list[bool]:
        """Answer labels for every object of the relation, in relation
        order, via the backend."""
        self._check(query)
        return self.backend.matches_many(query)

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
