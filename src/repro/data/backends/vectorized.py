"""Vectorized numpy evaluation kernel: the inverted index as packed bits.

:func:`~repro.data.index.evaluate_inverted` spends its time in two
pure-python loops: the mask scan (``(m & body) == body`` per distinct
mask) and the big-int bitset unions (``violators |= bits``), which at
``W`` objects re-copy ``W/30``-digit integers per distinct mask.
:class:`PackedBitIndex` stores the same inverted index as two numpy
arrays so both loops become SIMD-width array operations:

* ``masks`` — the ``D`` distinct Boolean-tuple bitmasks as a ``uint64``
  vector (hence the ``n <= 64`` width limit of this backend);
* ``bits`` — the ``D`` object-position bitsets as a ``D x ceil(W/64)``
  matrix of little-endian ``uint64`` words: bit ``i`` of an object
  bitset lives at ``bits[row, i >> 6]``, bit position ``i & 63``.

The kernel contract is exactly :func:`evaluate_inverted`'s: a universal
Horn expression selects rows with a broadcast compare
(``(masks & body) == body``), splits them on the head, and unions each
side with one ``np.bitwise_or.reduce`` down the rows; existential
conjunctions union one selection; AND/OR/NOT happen word-wise on the
answer vector.  ``np.bitwise_or.reduce`` over an empty selection yields
the zero vector — the same identity as the python kernel's empty union —
so answers are bit-identical by construction (and pinned against every
other backend by ``tests/properties/test_prop_backends.py``).

Both the python kernel and the plain reduce are memory-bandwidth bound —
every query re-reads all ``D`` bitset rows — so a straight translation
cannot beat CPython's big-int loops by much.  The packed index therefore
precomputes, lazily on first evaluation and only when the table fits
:data:`ZETA_TABLE_BUDGET`, the *superset-union (zeta) tables* that make
warm evaluation touch one row per quantifier instead of all ``D``:

* ``Z[mask]``   — union of the bitsets of all data masks ``m ⊇ mask``;
* ``V_h[mask]`` — the same union restricted to ``m`` with head bit ``h``
  clear (built per head bit on first use).

With them a universal ``(body, head=1<<h)`` evaluates as
``answers &= ~V_h[body]`` plus (guarantees) ``answers &= Z[body | head]``
and an existential ``mask`` as ``answers &= Z[mask]`` — a constant
number of ``O(words)`` operations per expression.  Compiled queries with
a multi-bit head mask (impossible via ``QhornQuery.compile``, possible
by hand) and indexes whose ``2^n`` table would blow the budget fall back
to the reduce path above; both paths produce bit-identical answers.

:class:`NumpyBackend` wraps the packed index behind the
:class:`~repro.data.backends.base.EvaluationBackend` seam
(``--backend numpy``); :class:`~repro.data.backends.sharded.
ShardedBitmaskBackend` reuses :class:`PackedBitIndex` per shard via its
``kernel="numpy"`` option, including worker-side in the process pool.
E26 (``benchmarks/test_e26_numpy_kernel.py``) gates the speedup over the
pure-python kernel at 100k objects.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.index import positions_of
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["MAX_PACKED_VARIABLES", "NumpyBackend", "PackedBitIndex"]

#: ``masks`` is a ``uint64`` vector, so a packed index can only hold
#: Boolean tuples over at most 64 propositions.  Far beyond the paper's
#: regime (and the 2^n mask-space blowup bites long before 64), but the
#: limit is checked, not assumed.
MAX_PACKED_VARIABLES = 64

#: Per-table byte cap for the zeta (superset-union) fast path: a table
#: holds ``2^n_used * words`` uint64 words, where ``n_used`` counts only
#: the proposition bits actually set in the data.  Under the cap, warm
#: evaluation is one table row per quantifier; over it, the kernel keeps
#: the ``O(D * words)`` reduce path.  At most ``n_used + 1`` tables ever
#: exist (``Z`` plus one ``V_h`` per head bit queried).
ZETA_TABLE_BUDGET = 1 << 24

_ONE = np.uint64(1)
_WORD_SHIFT = np.uint64(6)
_BIT_MASK = np.uint64(63)


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
        "_zeta",
        "_zeta_heads",
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
        # Zeta tables cover the mask space the data actually inhabits:
        # a query bit above _zeta_bits cannot occur in any data mask, so
        # its selections are empty unions (handled without a table).
        self._zeta_bits = (
            int(masks.max()).bit_length() if len(masks) else 0
        )
        if (1 << self._zeta_bits) * self.words * 8 > ZETA_TABLE_BUDGET:
            self._zeta_bits = -1  # over budget: reduce path only
        self._zeta: np.ndarray | None = None
        self._zeta_heads: dict[int, np.ndarray] = {}

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
        words = (count + 63) >> 6
        row_bytes = words * 8
        buffer = bytearray(len(inverted) * row_bytes)
        masks_arr = np.empty(len(inverted), dtype=np.uint64)
        for row, (m, bitset) in enumerate(inverted.items()):
            masks_arr[row] = m
            start = row * row_bytes
            buffer[start : start + row_bytes] = bitset.to_bytes(
                row_bytes, "little"
            )
        bits = (
            np.frombuffer(bytes(buffer), dtype="<u8")
            .reshape(len(inverted), words)
            .astype(np.uint64, copy=False)
        )
        return cls(count, masks_arr, bits)

    # ------------------------------------------------------------------
    # Zeta (superset-union) tables
    # ------------------------------------------------------------------
    def _superset_union(
        self, rows: np.ndarray, row_bits: np.ndarray
    ) -> np.ndarray:
        """``table[mask] = OR of row_bits[r] for rows[r] ⊇ mask`` over the
        full ``2^_zeta_bits`` mask space (the standard OR-zeta transform:
        one butterfly pass per bit)."""
        size = 1 << self._zeta_bits
        table = np.zeros((size, self.words), dtype=np.uint64)
        table[rows.astype(np.intp)] = row_bits
        index = np.arange(size)
        for j in range(self._zeta_bits):
            bit = 1 << j
            lo = index[(index & bit) == 0]
            table[lo] |= table[lo + bit]
        return table

    def _zeta_table(self) -> np.ndarray:
        if self._zeta is None:
            self._zeta = self._superset_union(self.masks, self.bits)
        return self._zeta

    def _zeta_head_table(self, h: int) -> np.ndarray:
        """``V_h``: superset unions over data masks with head bit ``h``
        clear — the violator side of a universal ``(body, 1 << h)``."""
        table = self._zeta_heads.get(h)
        if table is None:
            keep = (self.masks >> np.uint64(h)) & _ONE == 0
            table = self._superset_union(self.masks[keep], self.bits[keep])
            self._zeta_heads[h] = table
        return table

    def _evaluate_words_zeta(self, compiled: CompiledQuery) -> np.ndarray | None:
        """Constant-rows-per-quantifier evaluation off the zeta tables;
        ``None`` defers to the reduce path (multi-bit head mask)."""
        zeta = self._zeta_table()
        size = 1 << self._zeta_bits
        negatives: list[np.ndarray] = []  # violator unions, to be OR-ed
        positives: list[np.ndarray] = []  # witness unions, to be AND-ed
        unwitnessed = False
        for body, head in compiled.universal_masks:
            if head & (head - 1):
                return None  # hand-built multi-bit head: reduce path
            h = head.bit_length() - 1
            if body < size:
                if head and h < self._zeta_bits:
                    negatives.append(self._zeta_head_table(h)[body])
                else:
                    # No data mask can witness this head: every row that
                    # matches the body violates the implication.
                    negatives.append(zeta[body])
            # else: nothing matches the body — no violators.
            if compiled.require_guarantees:
                witness = body | head
                if head and witness < size:
                    positives.append(zeta[witness])
                else:
                    unwitnessed = True
        for mask in compiled.existential_masks:
            if mask < size:
                positives.append(zeta[mask])
            else:
                unwitnessed = True
        if unwitnessed:  # an empty union zeroes the whole answer
            return np.zeros(self.words, dtype=np.uint64)
        answers = self.all_bits.copy()
        for union in positives:
            answers &= union
        if negatives:
            violators = negatives[0]
            for union in negatives[1:]:
                violators = violators | union
            answers &= ~violators
        return answers

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_words(self, compiled: CompiledQuery) -> np.ndarray:
        """The answer bitset as a ``uint64[words]`` vector.

        Same algebra as :func:`~repro.data.index.evaluate_inverted`:
        warm evaluation reads one zeta-table row per quantifier when the
        tables fit the budget, else the mask scan runs as broadcast
        compares with per-expression unions as row reductions.
        """
        if self._zeta_bits >= 0:
            answers = self._evaluate_words_zeta(compiled)
            if answers is not None:
                return answers
        masks = self.masks
        bits = self.bits
        answers = self.all_bits.copy()
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
