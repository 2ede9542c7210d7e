"""Batch bitmask evaluation over a nested relation.

The seed :class:`~repro.data.engine.QueryEngine` re-abstracts every object's
rows through the :class:`~repro.data.propositions.Vocabulary` on every
``matches()`` call — the hot path of every benchmark and every oracle
answer.  A :class:`RelationIndex` pays that abstraction cost once:

* each object's rows collapse to a ``frozenset`` of Boolean-tuple bitmasks;
* an *inverted index* maps each distinct mask to the **object-position
  bitset** of the objects exhibiting it (an arbitrary-width ``int`` with
  bit ``i`` set iff object ``i`` contains the mask).

Evaluating a :class:`~repro.core.query.CompiledQuery` then reduces to set
algebra over big integers: a universal Horn expression contributes one
"violators" bitset and one "witnesses" bitset (unions over the distinct
masks, not over objects), an existential conjunction one "witnesses"
bitset, and the answer set is a handful of AND/OR/NOT operations.
Computing the answer bitset (:meth:`RelationIndex.matching_bits`) costs
``O(#distinct_masks × #expressions)`` mask tests plus word-parallel
bitset operations — a count independent of relation size once masks
repeat, which they necessarily do for relations far larger than ``2^n``.
Turning the bitset into objects (:meth:`RelationIndex.execute`) adds one
``O(W/8 + answers)`` decode over ``W`` objects (:func:`positions_of`).

Agreement with the per-object reference path is enforced by the
differential property suite in ``tests/properties/test_prop_engine.py``;
the representation and contract are documented in DESIGN.md §2.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core import tuples as bt
from repro.core.query import CompiledQuery, QhornQuery
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["RelationIndex", "evaluate_inverted", "labels_of", "positions_of"]

#: Byte value → its 8 bit labels (LSB first), so decoding an
#: object-position bitset costs one table lookup per 8 positions.
_BYTE_LABELS = tuple(
    tuple(bool(value >> i & 1) for i in range(8)) for value in range(256)
)


def labels_of(bits: int, count: int) -> list[bool]:
    """Decode an object-position bitset into ``count`` per-position labels.

    The obvious ``bits >> i & 1`` loop re-shifts the full big integer per
    position — ``O(count)`` per shift, ``O(count²)`` for a pass — which
    dominated full-relation labeling at large relations.  ``to_bytes``
    extracts every position in one linear pass instead; a 256-entry table
    then expands each byte to its 8 labels.  Shared by every bitmask
    evaluation path: :meth:`RelationIndex.matches_many`, the sharded
    backend's serial extraction and the worker-side extraction in
    :mod:`repro.parallel.worker`.
    """
    if count <= 0:
        return []
    out: list[bool] = []
    for byte in bits.to_bytes((count + 7) // 8, "little"):
        out.extend(_BYTE_LABELS[byte])
    del out[count:]
    return out


def positions_of(bits: int, count: int) -> list[int]:
    """Decode an object-position bitset over ``count`` objects into its
    set positions, ascending.

    Peeling off the lowest set bit would copy the whole big integer per
    answer, ``O(answers × W)`` over ``W`` objects.  Instead ``to_bytes``
    copies the bitset once, ``np.unpackbits`` expands it to one byte per
    position and ``np.flatnonzero`` collects the set ones:
    ``O(W/8 + answers)``.  The one decoder behind every bitmask
    backend's ``execute``: :meth:`RelationIndex.execute`, the numpy
    backend and the sharded backend.
    """
    packed = np.frombuffer(bits.to_bytes((count + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()


def evaluate_inverted(
    compiled: CompiledQuery, inverted: Mapping[int, int], all_bits: int
) -> int:
    """Core bitset algebra: the answer bitset of ``compiled`` over one
    inverted ``mask → object-position bitset`` index covering the objects
    of ``all_bits``.

    This is the single evaluation kernel shared by every bitmask backend:
    :class:`RelationIndex` runs it over the whole relation, the sharded
    backend runs it once per shard (each shard's bitsets are bounded to
    the shard width, positions are shard-local).
    """
    answers = all_bits
    for body, head in compiled.universal_masks:
        violators = 0
        witnesses = 0
        for m, bits in inverted.items():
            if (m & body) == body:
                if m & head:
                    witnesses |= bits
                else:
                    violators |= bits
        answers &= ~violators
        if compiled.require_guarantees:
            answers &= witnesses
        if not answers:
            return 0
    for mask in compiled.existential_masks:
        answers &= bt.union_masks(
            bits for m, bits in inverted.items() if (m & mask) == mask
        )
        if not answers:
            return 0
    return answers


class RelationIndex:
    """Precomputed mask sets + inverted mask index for one nested relation.

    Parameters
    ----------
    relation:
        The indexed :class:`NestedRelation`.
    vocabulary:
        The abstraction vocabulary; its width fixes the query width.
    auto_refresh:
        When ``True`` (default), every evaluation first compares the
        relation's ``version`` counter against the version the index was
        built from and rebuilds on mismatch, so objects inserted after
        construction are never silently ignored.  In-place mutation of an
        object's ``rows`` list bypasses the counter — call
        :meth:`refresh` with ``force=True`` after doing that.
    """

    def __init__(
        self,
        relation: NestedRelation,
        vocabulary: Vocabulary,
        auto_refresh: bool = True,
    ) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        self.auto_refresh = auto_refresh
        self._build()

    # ------------------------------------------------------------------
    # Construction / freshness
    # ------------------------------------------------------------------
    def _build(self) -> None:
        objects = self.relation.objects
        # Bulk abstraction: one distinct-row memo across the whole build.
        mask_sets = self.vocabulary.mask_sets(obj.rows for obj in objects)
        inverted: dict[int, int] = {}
        for position, masks in enumerate(mask_sets):
            bit = 1 << position
            for m in masks:
                inverted[m] = inverted.get(m, 0) | bit
        self._objects = objects
        self._mask_sets = mask_sets
        self._inverted = inverted
        self._positions = {o.key: i for i, o in enumerate(objects)}
        self._all_bits = (1 << len(objects)) - 1
        self._built_version = getattr(self.relation, "version", None)

    @property
    def is_stale(self) -> bool:
        """Has the relation been mutated since the index was built?"""
        return getattr(self.relation, "version", None) != self._built_version

    def refresh(self, force: bool = False) -> bool:
        """Rebuild if stale (or unconditionally with ``force``); returns
        whether a rebuild happened."""
        if force or self.is_stale:
            self._build()
            return True
        return False

    def _ensure_fresh(self) -> None:
        if self.auto_refresh and self.is_stale:
            self._build()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._ensure_fresh()
        return len(self._objects)

    @property
    def distinct_masks(self) -> int:
        """Number of distinct Boolean tuples across the whole relation."""
        self._ensure_fresh()
        return len(self._inverted)

    def mask_set(self, obj: NestedObject) -> frozenset[int]:
        """The abstracted mask set of ``obj`` — from the index when the
        object belongs to the relation, abstracted on the fly otherwise."""
        self._ensure_fresh()
        position = self._positions.get(obj.key)
        if position is not None and self._objects[position] is obj:
            return self._mask_sets[position]
        return frozenset(self.vocabulary.boolean_tuples(obj.rows))

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def matching_bits(self, query: QhornQuery | CompiledQuery) -> int:
        """Object-position bitset of the relation's answers to ``query``."""
        self._ensure_fresh()
        compiled = query.compile() if isinstance(query, QhornQuery) else query
        if compiled.n != self.vocabulary.n:
            raise ValueError(
                f"query over n={compiled.n} propositions, vocabulary has "
                f"{self.vocabulary.n}"
            )
        return evaluate_inverted(compiled, self._inverted, self._all_bits)

    def execute(self, query: QhornQuery | CompiledQuery) -> list[NestedObject]:
        """The relation's answers to ``query``, in relation order."""
        bits = self.matching_bits(query)
        objects = self._objects
        return [objects[i] for i in positions_of(bits, len(objects))]

    def matches_many(
        self,
        query: QhornQuery | CompiledQuery,
        objects: Iterable[NestedObject] | None = None,
    ) -> list[bool]:
        """Per-object answer labels, reusing the index for indexed objects.

        With ``objects=None`` labels the whole relation (in relation
        order).  Foreign objects — not part of the indexed relation — are
        abstracted once and evaluated through the compiled query.
        """
        bits = self.matching_bits(query)
        if objects is None:
            return labels_of(bits, len(self._objects))
        compiled = query.compile() if isinstance(query, QhornQuery) else query
        labels: list[bool] = []
        for obj in objects:
            position = self._positions.get(obj.key)
            if position is not None and self._objects[position] is obj:
                labels.append(bool(bits >> position & 1))
            else:
                labels.append(
                    compiled.evaluate(self.vocabulary.boolean_tuples(obj.rows))
                )
        return labels

    def __iter__(self) -> Iterator[frozenset[int]]:
        """Iterate the per-object mask sets, in relation order."""
        self._ensure_fresh()
        return iter(self._mask_sets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelationIndex({len(self._objects)} objects, "
            f"{self.distinct_masks} distinct masks, n={self.vocabulary.n})"
        )
