"""Batch bitmask evaluation over a nested relation.

The seed :class:`~repro.data.engine.QueryEngine` re-abstracts every object's
rows through the :class:`~repro.data.propositions.Vocabulary` on every
``matches()`` call — the hot path of every benchmark and every oracle
answer.  A :class:`RelationIndex` pays that abstraction cost once: its
*inverted index* maps each distinct Boolean-tuple mask to the
**object-position bitset** of the objects exhibiting it (an
arbitrary-width ``int`` with bit ``i`` set iff object ``i`` contains the
mask).  The build is one pass over the rows
(:meth:`~repro.data.propositions.Vocabulary.mask_positions` lists each
mask's object positions) and one packing step per distinct mask
(:func:`pack_positions`), linear in the relation's size.

Evaluating a :class:`~repro.core.query.CompiledQuery` then reduces to set
algebra over big integers: a universal Horn expression contributes one
"violators" bitset and one "witnesses" bitset (unions over the distinct
masks, not over objects), an existential conjunction one "witnesses"
bitset, and the answer set is a handful of AND/OR/NOT operations.
:class:`BitsetKernel` — the one evaluation kernel, behind the index —
precomputes those unions for every mask in
lazily built superset-union tables (:func:`superset_unions`), so
computing the answer bitset (:meth:`RelationIndex.matching_bits`) costs
``O(#expressions × W/64)`` word operations over ``W`` objects.  Data
whose tables :func:`zeta_bits` refuses (a mask space much wider than the
distinct masks in it) goes through the :func:`evaluate_inverted` scan
instead: ``O(#distinct_masks × #expressions)`` mask tests and bitset
unions.  Turning the bitset into objects (:meth:`RelationIndex.execute`)
adds one ``O(W)`` decode to a boolean flag array (:func:`flags_of`) and
one numpy gather from the object array built with the index: no Python
``int`` is made per answer.

Agreement with the per-object reference path is enforced by the
differential property suite in ``tests/properties/test_prop_engine.py``;
the tabled path is pinned to the scan by
``tests/properties/test_prop_tables.py``; the representation and
contract are documented in DESIGN.md §2.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core import tuples as bt
from repro.core.query import CompiledQuery, QhornQuery
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = [
    "BitsetKernel",
    "RelationIndex",
    "ZETA_TABLE_BUDGET",
    "evaluate_inverted",
    "flags_of",
    "pack_positions",
    "superset_unions",
    "zeta_bits",
]

#: Per-table byte cap for the superset-union tables, counting a table as
#: ``2^n_used`` bitsets of ``ceil(W / 64)`` 8-byte words over ``W``
#: objects; over it, :func:`zeta_bits` refuses tables.  At most
#: ``n_used + 1`` tables exist per index (``Z`` plus one ``V_h`` per head
#: bit queried).
ZETA_TABLE_BUDGET = 1 << 24


def flags_of(bits: int, count: int) -> np.ndarray:
    """Decode an object-position bitset over ``count`` objects into a
    boolean flag array of length ``count``: entry ``i`` is bit ``i``.

    Peeling off the lowest set bit would copy the whole big integer per
    answer, ``O(answers × W)`` over ``W`` objects.  Instead ``to_bytes``
    copies the bitset once and ``np.unpackbits`` expands it to one byte
    per position, viewed as ``bool``: ``O(W)``, with no Python object
    per position.  The decoder behind :meth:`RelationIndex.execute` and
    :meth:`RelationIndex.matches_many`; :func:`pack_positions` is its
    reverse.
    """
    packed = np.frombuffer(bits.to_bytes((count + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=count, bitorder="little").view(np.bool_)


def pack_positions(
    positions: Mapping[int, Sequence[int]], count: int
) -> dict[int, int]:
    """The inverted ``mask → object-position bitset`` index over
    ``count`` objects, from each mask's list of object positions.

    Accumulating ``1 << position`` per (object, mask) pair would copy a
    ``W``-bit integer each time, ``O(W²)`` over ``W`` objects.  Instead
    each list sets its positions in one reused flag array,
    ``np.packbits`` packs the array (the bytes :func:`flags_of`
    unpacks) and ``int.from_bytes`` reads the bitset off it:
    ``O(W/8 + positions)`` per distinct mask.
    """
    flags = np.zeros(count, dtype=np.bool_)
    inverted: dict[int, int] = {}
    for mask, listed in positions.items():
        where = np.array(listed, dtype=np.intp)
        flags[where] = True
        packed = np.packbits(flags, bitorder="little")
        inverted[mask] = int.from_bytes(packed.tobytes(), "little")
        flags[where] = False
    return inverted


def evaluate_inverted(
    compiled: CompiledQuery, inverted: Mapping[int, int], all_bits: int
) -> int:
    """The scan: the answer bitset of ``compiled`` over one inverted
    ``mask → object-position bitset`` index covering the objects of
    ``all_bits``, testing every distinct mask per quantifier.

    :class:`BitsetKernel` falls back to it for data whose tables
    :func:`zeta_bits` refuses and for hand-built multi-bit heads; the
    tabled path must agree with it bit for bit.
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


def zeta_bits(max_mask: int, distinct: int, count: int) -> int:
    """The admission rule for superset-union tables: the table width
    ``n_used`` of an inverted index of ``distinct`` masks, the highest
    being ``max_mask``, over ``count`` objects — or ``-1`` when
    :class:`BitsetKernel` should scan instead.

    A table has one entry per mask below ``2^n_used``.  It is admitted
    when ``2^n_used <= 4 * distinct`` — then it is at most 4x the
    inverted index it summarizes, and its ``n_used * 2^(n_used - 1)``
    unions cost about ``2 * n_used`` scans — and when ``2^n_used``
    bitsets of ``ceil(count / 64)`` words fit :data:`ZETA_TABLE_BUDGET`.
    """
    bits = max_mask.bit_length()
    size = 1 << bits
    table_bytes = size * ((count + 63) >> 6) * 8
    if size > 4 * distinct or table_bytes > ZETA_TABLE_BUDGET:
        return -1
    return bits


def superset_unions(
    inverted: Mapping[int, int], bits: int, clear: int = 0
) -> list[int]:
    """The superset-union (zeta) table of an inverted index whose masks
    all lie below ``2^bits``: entry ``m`` is the union of the bitsets of
    every data mask ``⊇ m`` that has no bit of ``clear`` set.

    The OR-zeta transform, one butterfly pass per bit:
    ``bits * 2^(bits - 1)`` unions at most.  Entries with a ``clear``
    bit set stay the shared ``0``.  :class:`BitsetKernel` keeps its
    tables as these lists.
    """
    size = 1 << bits
    table = [0] * size
    for m, bitset in inverted.items():
        if not m & clear:
            table[m] = bitset
    for j in range(bits):
        step = 1 << j
        for low in range(0, size, step << 1):
            for m in range(low, low + step):
                above = table[m + step]
                if above:
                    table[m] |= above
    return table


class BitsetKernel:
    """The bitmask kernel: one inverted ``mask → object-position
    bitset`` index over ``count`` objects, answered from lazily built
    superset-union tables — ``Z[m]``, the union of the bitsets of data
    masks ``⊇ m``, and ``V_h[m]``, the same union over the masks with
    head bit ``h`` clear — at a few ``W``-bit operations per quantifier
    (:meth:`matching_bits`) instead of one per distinct mask.

    :class:`RelationIndex` holds one over the whole relation.  The tables
    are derived state, built on first use (``Z`` once, one ``V_h`` per
    head bit queried) and dropped with the kernel.  Data that
    :func:`zeta_bits` refuses, and hand-built multi-bit heads, go through
    the :func:`evaluate_inverted` scan instead.
    """

    __slots__ = ("inverted", "count", "all_bits", "_zeta_bits", "_tables")

    def __init__(self, inverted: dict[int, int], count: int) -> None:
        self.inverted = inverted
        self.count = count
        self.all_bits = (1 << count) - 1
        self._zeta_bits = zeta_bits(
            max(inverted, default=0), len(inverted), count
        )
        #: Tables by the head bits their masks must lack: ``Z`` at 0,
        #: ``V_h`` at ``1 << h``.
        self._tables: dict[int, list[int]] = {}

    def _row(self, clear: int, mask: int) -> int:
        """Entry ``mask`` of table ``clear``; a mask with a bit no data
        mask carries covers none of them: the empty union."""
        if mask >> self._zeta_bits:
            return 0
        table = self._tables.get(clear)
        if table is None:
            # Threads sharing a kernel may both build a missing table;
            # they build the same one, so either may be kept.
            table = superset_unions(self.inverted, self._zeta_bits, clear)
            self._tables[clear] = table
        return table[mask]

    def matching_bits(self, compiled: CompiledQuery) -> int:
        """The answer bitset of ``compiled``: one table entry per
        quantifier, or the :func:`evaluate_inverted` scan when the tables
        cannot answer it — the data was refused (``_zeta_bits < 0``) or
        a head has several bits.

        Per universal ``(body, head = 1 << h)`` the violators are
        ``V_h[body]`` and, under guarantees, the witnesses ``Z[body |
        head]``; per existential ``mask`` the witnesses are ``Z[mask]``.
        """
        bits = self._zeta_bits
        if bits < 0 or any(
            head & (head - 1) for _body, head in compiled.universal_masks
        ):
            return evaluate_inverted(compiled, self.inverted, self.all_bits)
        # A head bit no data mask carries is never witnessed: every mask
        # covering the body violates, so its violators come from Z.
        carried = (1 << bits) - 1
        row = self._row
        answers = self.all_bits
        for body, head in compiled.universal_masks:
            answers &= ~row(head & carried, body)
            if compiled.require_guarantees:
                answers &= row(0, body | head)
        for mask in compiled.existential_masks:
            answers &= row(0, mask)
        return answers


class RelationIndex:
    """The inverted mask index of one nested relation, in a
    :class:`BitsetKernel`.

    Parameters
    ----------
    relation:
        The indexed :class:`NestedRelation`.
    vocabulary:
        The abstraction vocabulary; its width fixes the query width.

    Every evaluation first compares the relation's ``version`` counter
    against the version the index was built from and rebuilds on
    mismatch, so objects inserted after construction are never silently
    ignored.  In-place mutation of an object's ``rows`` list bypasses the
    counter — call :meth:`refresh` with ``force=True`` after doing that.
    """

    def __init__(self, relation: NestedRelation, vocabulary: Vocabulary) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        self._build()

    # ------------------------------------------------------------------
    # Construction / freshness
    # ------------------------------------------------------------------
    def _build(self) -> None:
        relation = self.relation
        count = len(relation)
        # One pass over the rows with one distinct-row memo, then one
        # packed bitset per distinct mask.
        positions = self.vocabulary.mask_positions(obj.rows for obj in relation)
        # The objects as a 1-D object array, for ``execute``'s boolean-mask
        # gather; ``np.fromiter`` stores each reference without probing it
        # for nested sequences, as ``np.array`` would.
        self._objects = np.fromiter(relation, dtype=object, count=count)
        self._kernel = BitsetKernel(pack_positions(positions, count), count)
        self._built_version = getattr(relation, "version", None)

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
        if self.is_stale:
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
        return len(self._kernel.inverted)

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
        return self._kernel.matching_bits(compiled)

    def execute(self, query: QhornQuery | CompiledQuery) -> list[NestedObject]:
        """The relation's answers to ``query``, in relation order: a
        plain list of the relation's own objects."""
        bits = self.matching_bits(query)
        objects = self._objects
        return objects[flags_of(bits, len(objects))].tolist()

    def matches_many(self, query: QhornQuery | CompiledQuery) -> list[bool]:
        """Per-object answer labels for the whole relation, in relation
        order."""
        return flags_of(self.matching_bits(query), len(self._objects)).tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelationIndex({len(self._objects)} objects, "
            f"{self.distinct_masks} distinct masks, n={self.vocabulary.n})"
        )
