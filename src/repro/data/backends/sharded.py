"""Sharded bitmask backend: object-position blocks with bounded bitsets.

The single :class:`~repro.data.index.RelationIndex` stores one inverted
``mask → object-position bitset`` map whose bitsets span the *whole*
relation.  Those arbitrary-width ints make the algebra elegant, but two
costs grow super-linearly with relation size ``W``:

* **build** — ``inverted[m] |= 1 << position`` re-copies an up-to-``W``-bit
  integer per (object, mask) pair, an ``O(W²)``-flavoured accumulation;
* **label extraction** — ``bits >> i & 1`` over all ``i`` costs ``O(W)``
  per shift, ``O(W²)`` for a full-relation labeling pass.

:class:`ShardedBitmaskBackend` partitions the relation into consecutive
*object-position blocks* of ``shard_size`` objects.  Each shard owns its
own inverted index with **shard-local positions**, so every bitset is
bounded to ``shard_size`` bits: builds and label extractions become
linear in relation size, and shards evaluate independently.  Each
:class:`Shard` is the one bitmask kernel,
:class:`~repro.data.index.BitsetKernel`, over its block (superset-union
tables built lazily per shard; the scan for data that does not admit
them), plus the block's ``offset``.

Shards evaluate one after another in-process.  Shard boundaries are
unobservable: answers are identical to the single index on identical
state (enforced by ``tests/properties/test_prop_backends.py``), and
``matching_bits`` reassembles the global object-position bitset in
relation order.  E23 (``benchmarks/test_e23_backend_scale.py``) charts
the layout against the single index.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.index import BitsetKernel, invert, labels_of, positions_of
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

__all__ = ["ShardedBitmaskBackend", "Shard", "DEFAULT_SHARD_SIZE"]

#: Default objects per shard: big enough that per-shard dict overhead is
#: amortized, small enough that every bitset stays a few machine words.
DEFAULT_SHARD_SIZE = 4096


class Shard(BitsetKernel):
    """One object-position block: the shared bitmask kernel over a
    shard-local inverted index, plus the block's ``offset``."""

    __slots__ = ("offset",)

    def __init__(self, offset: int, mask_sets: Sequence[Iterable[int]]) -> None:
        super().__init__(invert(mask_sets), len(mask_sets))
        self.offset = offset


class ShardedBitmaskBackend:
    """The relation partitioned into independent bitmask shards.

    Parameters
    ----------
    relation, vocabulary:
        The evaluated pair.
    shard_size:
        Objects per shard (the bound on every bitset's width).
    auto_refresh:
        Rebuild all shards on relation-version mismatch before every
        evaluation (same contract as :class:`RelationIndex`).
    """

    name = "sharded"

    def __init__(
        self,
        relation: NestedRelation,
        vocabulary: Vocabulary,
        shard_size: int = DEFAULT_SHARD_SIZE,
        auto_refresh: bool = True,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.relation = relation
        self.vocabulary = vocabulary
        self.shard_size = shard_size
        self.auto_refresh = auto_refresh
        self._built = False
        self._shards: list[Shard] = []
        self._spans: list[tuple[int, int]] = []
        self._built_version: int | None = None

    # ------------------------------------------------------------------
    # Construction / freshness
    # ------------------------------------------------------------------
    def _build(self) -> None:
        objects = self.relation.objects
        size = self.shard_size
        self._objects = objects
        self._positions = {o.key: i for i, o in enumerate(objects)}
        self._spans = [
            (offset, min(size, len(objects) - offset))
            for offset in range(0, len(objects), size)
        ]
        # Bulk abstraction: one distinct-row memo across all shards.
        mask_sets = self.vocabulary.mask_sets(obj.rows for obj in objects)
        self._shards = [
            Shard(offset, mask_sets[offset : offset + size])
            for offset, _count in self._spans
        ]
        self._built = True
        self._built_version = getattr(self.relation, "version", None)

    @property
    def is_stale(self) -> bool:
        return (
            not self._built
            or getattr(self.relation, "version", None) != self._built_version
        )

    def refresh(self, force: bool = False) -> bool:
        if force or self.is_stale:
            self._build()
            return True
        return False

    def _ensure_fresh(self) -> None:
        if not self._built or (self.auto_refresh and self.is_stale):
            self._build()

    @property
    def shard_count(self) -> int:
        self._ensure_fresh()
        return len(self._spans)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _compiled(self, query: QhornQuery | CompiledQuery) -> CompiledQuery:
        check_width(query, self.vocabulary)
        return query.compile() if isinstance(query, QhornQuery) else query

    def _shard_answers(self, compiled: CompiledQuery) -> list[int]:
        """Per-shard answer bitsets (shard-local positions), shard order."""
        return [shard.matching_bits(compiled) for shard in self._shards]

    def matching_bits(self, query: QhornQuery | CompiledQuery) -> int:
        self._ensure_fresh()
        compiled = self._compiled(query)
        answers = 0
        for shard, bits in zip(self._shards, self._shard_answers(compiled)):
            answers |= bits << shard.offset
        return answers

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
        answers = self._shard_answers(compiled)
        if objects is None:
            # Extract shard by shard so every bitset stays shard-width.
            labels: list[bool] = []
            for (_offset, count), bits in zip(self._spans, answers):
                labels.extend(labels_of(bits, count))
            return labels
        size = self.shard_size
        labels = []
        for obj in objects:
            position = self._positions.get(obj.key)
            if position is not None and self._objects[position] is obj:
                shard_idx, local = divmod(position, size)
                labels.append(bool(answers[shard_idx] >> local & 1))
            else:
                labels.append(
                    compiled.evaluate(self.vocabulary.boolean_tuples(obj.rows))
                )
        return labels

    def describe(self) -> str:
        if not self._built:
            return "sharded: shards not built yet"
        masks = sum(len(s.inverted) for s in self._shards)
        return (
            f"sharded: {len(self._objects)} objects in "
            f"{len(self._spans)} shard(s) of ≤{self.shard_size}, "
            f"{masks} inverted entries"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedBitmaskBackend({len(self.relation)} objects, "
            f"shard_size={self.shard_size})"
        )
