"""The single-index bitmask backend: the seed batch path behind the seam.

:class:`BitmaskBackend` is a thin adapter around
:class:`~repro.data.index.RelationIndex` — the evaluation logic lives in
the index and its :class:`~repro.data.index.BitsetKernel` (superset-union
tables when the data admits them, the
:func:`~repro.data.index.evaluate_inverted` scan otherwise); the backend
only adds the seam's lazy-build and describe affordances.  This is the default backend of
:class:`~repro.data.engine.QueryEngine` and is behaviourally identical to
the pre-seam engine.
"""

from __future__ import annotations

from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.index import RelationIndex
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["BitmaskBackend"]


class BitmaskBackend:
    """One :class:`RelationIndex` over the whole relation.

    Parameters
    ----------
    relation, vocabulary:
        The evaluated pair; the index over them is built lazily on first
        evaluation, and rebuilt when the relation's version moves.
    """

    name = "bitmask"

    def __init__(self, relation: NestedRelation, vocabulary: Vocabulary) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        self._index: RelationIndex | None = None

    @property
    def index(self) -> RelationIndex:
        """The backing index, built on first access."""
        if self._index is None:
            self._index = RelationIndex(self.relation, self.vocabulary)
        return self._index

    def matching_bits(self, query: QhornQuery | CompiledQuery) -> int:
        check_width(query, self.vocabulary)
        return self.index.matching_bits(query)

    def execute(self, query: QhornQuery | CompiledQuery) -> list[NestedObject]:
        check_width(query, self.vocabulary)
        return self.index.execute(query)

    def matches_many(self, query: QhornQuery | CompiledQuery) -> list[bool]:
        check_width(query, self.vocabulary)
        return self.index.matches_many(query)

    @property
    def is_stale(self) -> bool:
        # "Not built yet" counts as stale, matching the SQL backend, so
        # warm-build-via-refresh works identically across the seam.
        return self._index is None or self._index.is_stale

    def refresh(self, force: bool = False) -> bool:
        if self._index is None:
            self.index  # build
            return True
        return self._index.refresh(force=force)

    def describe(self) -> str:
        if self._index is None:
            return "bitmask: index not built yet"
        return (
            f"bitmask: {len(self._index)} objects, "
            f"{self._index.distinct_masks} distinct masks"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitmaskBackend({len(self.relation)} objects)"
