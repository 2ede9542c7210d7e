"""Vectorized numpy evaluation kernel: the inverted index as packed bits.

:class:`PackedBitIndex` stores the inverted ``mask -> object-position
bitset`` index of :mod:`repro.data.index` as two numpy arrays:

* ``masks`` — the ``D`` distinct Boolean-tuple bitmasks as a ``uint64``
  vector (hence the ``n <= 64`` width limit of this backend);
* ``bits`` — the ``D`` object-position bitsets as a ``D x ceil(W/64)``
  matrix of little-endian ``uint64`` words: bit ``i`` of an object
  bitset lives at ``bits[row, i >> 6]``, bit position ``i & 63``.

It answers exactly like the big-int
:class:`~repro.data.index.BitsetKernel`, under the same admission rule
(:func:`~repro.data.index.zeta_bits`):

* **tabled** — the superset-union tables ``Z`` and ``V_h`` come from the
  shared transform (:func:`~repro.data.index.superset_unions`), lazily, and
  are packed into ``2^n_used x words`` matrices; the shared
  :func:`~repro.data.index.evaluate_tabled` reads one row per
  quantifier (a universal ``(body, head=1<<h)`` as ``answers &=
  ~V_h[body]`` plus, under guarantees, ``answers &= Z[body | head]``; an
  existential ``mask`` as ``answers &= Z[mask]``);
* **reduce** — for refused data and hand-built multi-bit heads, the scan
  of :func:`~repro.data.index.evaluate_inverted` as array operations: a
  broadcast compare (``(masks & body) == body``) selects rows, and one
  ``np.bitwise_or.reduce`` down the rows unions each side.  A reduce over
  an empty selection yields the zero vector — the empty union's
  identity — so answers are bit-identical by construction (and pinned by
  ``tests/properties/test_prop_tables.py`` and
  ``tests/properties/test_prop_backends.py``).

Only the packed layout and the reduce path are numpy-specific.
:class:`NumpyBackend` wraps the packed index behind the
:class:`~repro.data.backends.base.EvaluationBackend` seam
(``--backend numpy``); :class:`~repro.data.backends.sharded.
ShardedBitmaskBackend` reuses :class:`PackedBitIndex` per shard via its
``kernel="numpy"`` option, including worker-side in the process pool.
E26 (``benchmarks/test_e26_numpy_kernel.py``) gates its speedup over the
:func:`~repro.data.index.evaluate_inverted` scan at 100k objects.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.index import (
    evaluate_tabled,
    positions_of,
    superset_unions,
    zeta_bits,
)
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["MAX_PACKED_VARIABLES", "NumpyBackend", "PackedBitIndex"]

#: ``masks`` is a ``uint64`` vector, so a packed index can only hold
#: Boolean tuples over at most 64 propositions.  Far beyond the paper's
#: regime (and the 2^n mask-space blowup bites long before 64), but the
#: limit is checked, not assumed.
MAX_PACKED_VARIABLES = 64

_ONE = np.uint64(1)
_WORD_SHIFT = np.uint64(6)
_BIT_MASK = np.uint64(63)


def _pack_rows(bitsets: Collection[int], count: int) -> np.ndarray:
    """Big-int object-position bitsets over ``count`` objects as a
    ``uint64[rows, words]`` matrix (little-endian words)."""
    words = (count + 63) >> 6
    buffer = b"".join(
        bitset.to_bytes(words * 8, "little") for bitset in bitsets
    )
    return (
        np.frombuffer(buffer, dtype="<u8")
        .reshape(len(bitsets), words)
        .astype(np.uint64, copy=False)
    )


class PackedBitIndex:
    """One inverted ``mask -> object-position bitset`` index, packed.

    Attributes
    ----------
    count:
        Number of objects (the bitset width ``W``).
    words:
        Words per bitset row: ``ceil(count / 64)``.
    masks:
        ``uint64[D]`` — the distinct Boolean-tuple bitmasks.
    bits:
        ``uint64[D, words]`` — row ``r`` is the object-position bitset
        of ``masks[r]``, little-endian words, LSB-first within a word
        (bit ``i`` at ``bits[r, i >> 6] >> (i & 63) & 1``).
    all_bits:
        ``uint64[words]`` — the full-relation bitset ``(1 << count) - 1``
        in the same layout; the trailing partial word is masked so NOT
        can never leak phantom objects.
    """

    __slots__ = (
        "count",
        "words",
        "masks",
        "bits",
        "all_bits",
        "_zeta_bits",
        "_tables",
    )

    def __init__(
        self, count: int, masks: np.ndarray, bits: np.ndarray
    ) -> None:
        self.count = count
        self.words = (count + 63) >> 6
        self.masks = masks
        self.bits = bits
        all_bits = np.full(self.words, ~np.uint64(0), dtype=np.uint64)
        if self.words and count & 63:
            all_bits[-1] = (_ONE << np.uint64(count & 63)) - _ONE
        self.all_bits = all_bits
        # The admission rule shared with the big-int kernel: -1 keeps
        # the reduce path only.
        self._zeta_bits = zeta_bits(
            int(masks.max()) if len(masks) else 0, len(masks), count
        )
        #: Packed tables, keyed like ``BitsetKernel``'s.
        self._tables: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_mask_sets(
        cls, mask_sets: Sequence[Iterable[int]]
    ) -> "PackedBitIndex":
        """Pack per-object mask sets (object order = bit position).

        One pass collects ``(mask row, object position)`` pairs, then a
        single scatter-OR (``np.bitwise_or.at``) sets every bit — no
        python-level big-int accumulation anywhere in the build.
        """
        count = len(mask_sets)
        mask_rows: dict[int, int] = {}
        rows: list[int] = []
        positions: list[int] = []
        for position, masks in enumerate(mask_sets):
            for m in masks:
                row = mask_rows.setdefault(m, len(mask_rows))
                rows.append(row)
                positions.append(position)
        words = (count + 63) >> 6
        bits = np.zeros((len(mask_rows), words), dtype=np.uint64)
        if rows:
            pos = np.asarray(positions, dtype=np.uint64)
            np.bitwise_or.at(
                bits,
                (
                    np.asarray(rows, dtype=np.intp),
                    (pos >> _WORD_SHIFT).astype(np.intp),
                ),
                _ONE << (pos & _BIT_MASK),
            )
        masks_arr = np.fromiter(
            mask_rows, dtype=np.uint64, count=len(mask_rows)
        )
        return cls(count, masks_arr, bits)

    @classmethod
    def from_inverted(
        cls, inverted: Mapping[int, int], count: int
    ) -> "PackedBitIndex":
        """Pack an already-built big-int inverted index (shard payloads)."""
        masks = np.fromiter(inverted, dtype=np.uint64, count=len(inverted))
        return cls(count, masks, _pack_rows(inverted.values(), count))

    # ------------------------------------------------------------------
    # Zeta (superset-union) tables
    # ------------------------------------------------------------------
    def _row(self, clear: int, mask: int) -> np.ndarray:
        """Row ``mask`` of table ``clear`` (``BitsetKernel._row`` over
        words).  A table is built once: the rows unpack to big ints, the
        shared :func:`~repro.data.index.superset_unions` runs, and its
        table packs back into words."""
        if mask >> self._zeta_bits:
            return np.zeros(self.words, dtype=np.uint64)
        table = self._tables.get(clear)
        if table is None:
            row_bytes = self.words * 8
            buffer = self.bits.astype("<u8", copy=False).tobytes()
            inverted = {
                m: int.from_bytes(
                    buffer[row * row_bytes : (row + 1) * row_bytes], "little"
                )
                for row, m in enumerate(self.masks.tolist())
            }
            table = _pack_rows(
                superset_unions(inverted, self._zeta_bits, clear), self.count
            )
            self._tables[clear] = table
        return table[mask]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_words(self, compiled: CompiledQuery) -> np.ndarray:
        """The answer bitset as a ``uint64[words]`` vector.

        Same algebra as :class:`~repro.data.index.BitsetKernel`: one
        table row per quantifier when the tables are admitted, else the
        mask scan as broadcast compares with per-expression unions as
        row reductions.
        """
        answers = self.all_bits.copy()
        tabled = evaluate_tabled(
            compiled, self._zeta_bits, self._row, answers
        )
        if tabled is not None:
            return tabled
        masks = self.masks
        bits = self.bits
        for body, head in compiled.universal_masks:
            selected = (masks & np.uint64(body)) == np.uint64(body)
            witnessed = (masks & np.uint64(head)) != 0
            violators = np.bitwise_or.reduce(
                bits[selected & ~witnessed], axis=0
            )
            answers &= ~violators
            if compiled.require_guarantees:
                answers &= np.bitwise_or.reduce(
                    bits[selected & witnessed], axis=0
                )
            if not answers.any():
                return answers
        for mask in compiled.existential_masks:
            answers &= np.bitwise_or.reduce(
                bits[(masks & np.uint64(mask)) == np.uint64(mask)], axis=0
            )
            if not answers.any():
                return answers
        return answers

    def matching_bits(self, compiled: CompiledQuery) -> int:
        """The answer bitset as one arbitrary-width int (the seam's
        currency) — little-endian words concatenate losslessly."""
        return int.from_bytes(
            self.evaluate_words(compiled).astype("<u8", copy=False).tobytes(),
            "little",
        )

    def labels(self, compiled: CompiledQuery) -> list[bool]:
        """Per-position answer labels, extracted without the int detour:
        one ``np.unpackbits`` over the answer words."""
        if not self.count:
            return []
        answer_bytes = (
            self.evaluate_words(compiled).astype("<u8", copy=False)
            .view(np.uint8)
        )
        return (
            np.unpackbits(answer_bytes, count=self.count, bitorder="little")
            .astype(bool)
            .tolist()
        )

    @property
    def distinct_masks(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedBitIndex({self.count} objects x {self.distinct_masks} "
            f"masks, {self.words} words/row)"
        )


class NumpyBackend:
    """The packed-bit index behind the evaluation seam.

    Same lazy-build / version-refresh / foreign-object contract as
    :class:`~repro.data.backends.bitmask.BitmaskBackend`; the only
    additional constraint is ``vocabulary.n <= 64`` (checked eagerly).
    """

    name = "numpy"

    def __init__(
        self,
        relation: NestedRelation,
        vocabulary: Vocabulary,
        auto_refresh: bool = True,
    ) -> None:
        if vocabulary.n > MAX_PACKED_VARIABLES:
            raise ValueError(
                f"the numpy backend packs masks into uint64 and supports "
                f"at most n={MAX_PACKED_VARIABLES} propositions, "
                f"vocabulary has {vocabulary.n}"
            )
        self.relation = relation
        self.vocabulary = vocabulary
        self.auto_refresh = auto_refresh
        self._packed: PackedBitIndex | None = None
        self._built_version: int | None = None

    # ------------------------------------------------------------------
    # Construction / freshness
    # ------------------------------------------------------------------
    def _build(self) -> None:
        objects = self.relation.objects
        mask_sets = self.vocabulary.mask_sets(obj.rows for obj in objects)
        self._objects = objects
        self._positions = {o.key: i for i, o in enumerate(objects)}
        self._packed = PackedBitIndex.from_mask_sets(mask_sets)
        self._built_version = getattr(self.relation, "version", None)

    @property
    def is_stale(self) -> bool:
        return (
            self._packed is None
            or getattr(self.relation, "version", None) != self._built_version
        )

    def refresh(self, force: bool = False) -> bool:
        if force or self.is_stale:
            self._build()
            return True
        return False

    def _ensure_fresh(self) -> None:
        if self._packed is None or (self.auto_refresh and self.is_stale):
            self._build()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _compiled(self, query: QhornQuery | CompiledQuery) -> CompiledQuery:
        check_width(query, self.vocabulary)
        return query.compile() if isinstance(query, QhornQuery) else query

    def matching_bits(self, query: QhornQuery | CompiledQuery) -> int:
        self._ensure_fresh()
        return self._packed.matching_bits(self._compiled(query))

    def execute(self, query: QhornQuery | CompiledQuery) -> list[NestedObject]:
        bits = self.matching_bits(query)
        objects = self._objects
        return [objects[i] for i in positions_of(bits, len(objects))]

    def matches_many(
        self,
        query: QhornQuery | CompiledQuery,
        objects: Iterable[NestedObject] | None = None,
    ) -> list[bool]:
        self._ensure_fresh()
        compiled = self._compiled(query)
        if objects is None:
            return self._packed.labels(compiled)
        bits = self._packed.matching_bits(compiled)
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

    def describe(self) -> str:
        if self._packed is None:
            return "numpy: packed index not built yet"
        packed = self._packed
        return (
            f"numpy: {packed.count} objects packed into "
            f"{packed.distinct_masks} x {packed.words} uint64 words, "
            f"{packed.distinct_masks} distinct masks"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NumpyBackend({len(self.relation)} objects)"
