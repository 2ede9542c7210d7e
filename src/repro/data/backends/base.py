"""The ``EvaluationBackend`` seam (DESIGN.md §2c).

The paper (§5) observes that membership questions can be answered either
by synthesizing examples or by evaluating against a real database.  This
module pins down the contract every evaluation backend satisfies, so the
learner/oracle stack above :class:`~repro.data.engine.QueryEngine` never
cares *how* a relation is evaluated — in-process bitmask algebra or a
SQL database.

The contract
------------
A backend is bound to one ``(relation, vocabulary)`` pair and answers:

* :meth:`~EvaluationBackend.matching_bits` — the object-position bitset
  (bit ``i`` set iff object ``i`` in relation order is an answer);
* :meth:`~EvaluationBackend.execute` — the answer objects in relation
  order;
* :meth:`~EvaluationBackend.matches_many` — per-object answer labels for
  the whole relation, in relation order.

**Answer identity.**  On identical relation state, every backend returns
exactly the answers of the per-object reference path
(``QhornQuery.evaluate`` over ``Vocabulary.abstract_object``), for every
qhorn query, including ``require_guarantees`` witness edge cases and
empty objects.  The differential property suite
(``tests/properties/test_prop_backends.py``) enforces agreement of both
backends on ≥ 1000 seeded cases.

**Versioning / refresh.**  Backends snapshot the relation's monotone
``version`` counter when they build.  Every evaluation first compares
counters and rebuilds on mismatch, so inserts are never silently
ignored; :attr:`is_stale` and :meth:`refresh` expose the same contract
explicitly.  In-place mutation of an object's ``rows`` bypasses the
counter — callers must ``refresh(force=True)``.

**Determinism.**  Answer order is relation order, whatever order the
backend computes answers in (the SQL backend's rows come back in key
order).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.query import CompiledQuery, QhornQuery
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["EvaluationBackend", "check_width"]


def check_width(
    query: QhornQuery | CompiledQuery, vocabulary: Vocabulary
) -> None:
    """Shared width validation: query and vocabulary must agree on ``n``."""
    if query.n != vocabulary.n:
        raise ValueError(
            f"query over n={query.n} propositions, vocabulary has "
            f"{vocabulary.n}"
        )


@runtime_checkable
class EvaluationBackend(Protocol):
    """Anything that can evaluate qhorn queries over one nested relation.

    The seam's input type is the *source* :class:`QhornQuery`: backends
    compile it into whatever internal form they need (bitmasks, SQL).
    The bitmask backend additionally accepts a pre-compiled
    :class:`~repro.core.query.CompiledQuery` as an optimization, but a
    ``CompiledQuery`` has no propositions and therefore cannot cross
    every backend (the ``dbapi`` backend rejects it with ``TypeError``) —
    backend-generic callers must pass the ``QhornQuery``, as
    :class:`~repro.data.engine.QueryEngine` does.
    """

    #: Key in :data:`~repro.data.backends.BACKENDS` (``"bitmask"`` or
    #: ``"dbapi"``).
    name: str
    relation: NestedRelation
    vocabulary: Vocabulary

    def matching_bits(self, query: QhornQuery) -> int:
        """Object-position bitset of the relation's answers to ``query``."""
        ...

    def execute(self, query: QhornQuery) -> list[NestedObject]:
        """The relation's answers to ``query``, in relation order."""
        ...

    def matches_many(self, query: QhornQuery) -> list[bool]:
        """Per-object answer labels for the whole relation."""
        ...

    @property
    def is_stale(self) -> bool:
        """Has the relation been mutated since the backend last built?"""
        ...

    def refresh(self, force: bool = False) -> bool:
        """Rebuild if stale (or unconditionally with ``force``); returns
        whether a rebuild happened."""
        ...

    def describe(self) -> str:
        """One-line human-readable summary (CLI/demo affordance)."""
        ...
