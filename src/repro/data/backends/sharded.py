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
tables built lazily per shard, never shipped; the scan for data that
does not admit them), plus the block's ``offset``.

Three execution modes share that layout:

* **serial** (default) — shards evaluate in-process, one after another;
* **caller-owned executor** — the per-shard evaluations of one query run
  through ``executor.map``; the backend never owns the lifecycle;
* **owned worker pool** (``processes=N``, or an injected ``pool=``) —
  a persistent :class:`~repro.parallel.ShardWorkerPool` receives the
  shard state once and evaluates it in ``N`` processes; per query only
  the compiled form crosses the boundary and either bitsets or
  worker-extracted label lists come back (DESIGN.md §2d).  This is the
  mode that beats the GIL on the big-int kernel.  Rebuilds (relation
  ``version`` bumps) re-ship automatically — the invalidation broadcast
  — and a pool crash raises
  :class:`~repro.parallel.WorkerCrashError` cleanly; the next evaluation
  builds a fresh owned pool.

In pool mode the *ingest* side is parallel too: by default
(``ingest="raw"``) the coordinator ships each shard's **raw rows** and
the workers run the vocabulary abstraction themselves
(:meth:`~repro.data.propositions.Vocabulary.mask_sets` worker-side), so
a ``processes=N`` build uses all cores instead of abstracting
single-core in the coordinator.  ``ingest="built"`` restores the old
behaviour — abstract locally, ship built payloads — which is the right
trade when rows are much wider than their inverted index (DESIGN.md
§2d discusses the tradeoff).

Shard boundaries are unobservable: answers are identical to the single
index on identical state (enforced by
``tests/properties/test_prop_backends.py`` and
``tests/properties/test_prop_parallel.py``), and ``matching_bits``
reassembles the global object-position bitset in relation order.  E23
(``benchmarks/test_e23_backend_scale.py``) charts the layout crossover;
E24 (``benchmarks/test_e24_parallel_scale.py``) charts speedup vs worker
count and the raw-vs-built build-phase split.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.index import BitsetKernel, invert, labels_of, positions_of
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor

    from repro.parallel import ShardWorkerPool

__all__ = ["ShardedBitmaskBackend", "Shard", "DEFAULT_SHARD_SIZE"]

#: Default objects per shard: big enough that per-shard dict overhead is
#: amortized, small enough that every bitset stays a few machine words.
DEFAULT_SHARD_SIZE = 4096

#: Shard-shipping modes for the worker pool: ship raw rows and abstract
#: worker-side (parallel ingest), or abstract in the coordinator and
#: ship the built inverted indexes.
INGEST_MODES = ("raw", "built")


class Shard(BitsetKernel):
    """One object-position block: the shared bitmask kernel over a
    shard-local inverted index, plus the block's ``offset``."""

    __slots__ = ("offset",)

    def __init__(self, offset: int, mask_sets: Sequence[Iterable[int]]) -> None:
        self._load(offset, invert(mask_sets), len(mask_sets))

    def _load(self, offset: int, inverted: dict[int, int], count: int) -> None:
        BitsetKernel.__init__(self, inverted, count)
        self.offset = offset

    @classmethod
    def from_payload(
        cls, payload: tuple[int, int, dict[int, int], int]
    ) -> "Shard":
        """Rebuild a shard from its wire payload (worker-side loading of
        a coordinator-built shard)."""
        offset, count, inverted, _all_bits = payload
        shard = cls.__new__(cls)
        shard._load(offset, inverted, count)
        return shard

    def __getstate__(self) -> tuple:
        # Executor/process transport: the tables are derived state,
        # rebuilt on the far side instead of pickled.
        return (self.offset, self.count, self.inverted)

    def __setstate__(self, state: tuple) -> None:
        offset, count, inverted = state
        self._load(offset, inverted, count)


class ShardedBitmaskBackend:
    """The relation partitioned into independent bitmask shards.

    Parameters
    ----------
    relation, vocabulary:
        The evaluated pair.
    shard_size:
        Objects per shard (the bound on every bitset's width).
    executor:
        Optional :class:`concurrent.futures.Executor`; when given, the
        per-shard evaluations of one query run through ``executor.map``.
        The backend never owns the executor's lifecycle.
    processes:
        Optional worker-process count: the backend creates and **owns**
        a :class:`~repro.parallel.ShardWorkerPool` (``0`` = one worker
        per core), ships shard state on build/refresh, and closes the
        pool in :meth:`close` / the context manager / at interpreter
        exit.  Mutually exclusive with ``executor`` and ``pool``.
    pool:
        Optional caller-owned :class:`~repro.parallel.ShardWorkerPool`
        to evaluate through; several backends may share one pool (each
        load is token-tagged, and a backend re-ships automatically when
        another tenant's load displaced its state).  The backend never
        closes an injected pool.
    ingest:
        Shard-shipping mode for pool execution: ``"raw"`` (default)
        ships raw shard rows and abstracts worker-side — the parallel
        ingest path — while ``"built"`` abstracts in the coordinator and
        ships built payloads.  Only meaningful with ``processes``/
        ``pool``; passing it in other modes raises ``ValueError``.
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
        executor: "Executor | None" = None,
        processes: int | None = None,
        pool: "ShardWorkerPool | None" = None,
        ingest: str | None = None,
        auto_refresh: bool = True,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        given = [
            name
            for name, value in (
                ("executor", executor),
                ("processes", processes),
                ("pool", pool),
            )
            if value is not None
        ]
        if len(given) > 1:
            raise ValueError(
                f"at most one of executor/processes/pool may be given, "
                f"got {', '.join(given)}"
            )
        self.relation = relation
        self.vocabulary = vocabulary
        self.shard_size = shard_size
        self.executor = executor
        self.processes = processes
        if processes is not None or pool is not None:
            from repro.parallel import PoolLease

            self._lease = PoolLease(pool=pool, processes=processes or 0)
        else:
            self._lease = None
        if ingest is not None:
            if ingest not in INGEST_MODES:
                raise ValueError(
                    f"unknown ingest mode {ingest!r}; "
                    f"choices: {', '.join(INGEST_MODES)}"
                )
            if self._lease is None:
                raise ValueError(
                    "ingest= applies only to worker-pool modes "
                    "(processes= or pool=)"
                )
        self.ingest = ingest if ingest is not None else (
            "raw" if self._lease is not None else None
        )
        self._shipped_token: int | None = None
        self._shipped_generation: int | None = None
        self.auto_refresh = auto_refresh
        self._built = False
        self._shards: list[Shard] | None = None
        self._spans: list[tuple[int, int]] = []
        self._built_version: int | None = None

    # ------------------------------------------------------------------
    # Construction / freshness
    # ------------------------------------------------------------------
    @property
    def _raw_ingest(self) -> bool:
        """Does the build phase ship raw rows for worker-side abstraction?"""
        return self._lease is not None and self.ingest == "raw"

    def _build(self) -> None:
        objects = self.relation.objects
        size = self.shard_size
        self._objects = objects
        self._positions = {o.key: i for i, o in enumerate(objects)}
        self._spans = [
            (offset, min(size, len(objects) - offset))
            for offset in range(0, len(objects), size)
        ]
        if self._raw_ingest:
            # Parallel ingest: abstraction happens worker-side when the
            # shards ship (first pool evaluation); nothing to build here
            # beyond the position map.
            self._shards = None
        else:
            # Bulk abstraction: one distinct-row memo across all shards.
            mask_sets = self.vocabulary.mask_sets(
                obj.rows for obj in objects
            )
            self._shards = [
                Shard(offset, mask_sets[offset : offset + size])
                for offset, _count in self._spans
            ]
        self._built = True
        self._built_version = getattr(self.relation, "version", None)
        # Worker-side state (if any) now describes a retired build; the
        # next pool evaluation re-ships (the invalidation broadcast).
        self._shipped_token = None

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
    # Worker-pool plumbing
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Is any parallel mode (executor or worker pool) configured?"""
        return self.executor is not None or self._lease is not None

    def _worker_pool(self) -> "ShardWorkerPool":
        """The active pool, (re)creating an owned one when necessary."""
        pool = self._lease.acquire()
        if self._shipped_generation != self._lease.generation:
            # A fresh pool (first use, or rebuilt after a crash) holds no
            # shard state yet.
            self._shipped_token = None
            self._shipped_generation = self._lease.generation
        return pool

    def _ship(self) -> int:
        """Broadcast this build's shard state to the pool workers —
        raw rows (workers abstract) or built payloads, per ``ingest``."""
        pool = self._worker_pool()
        if self._raw_ingest:
            # Rows cross the pipe projected onto the proposition-read
            # attributes (value tuples, not dicts): a fraction of the
            # pickle cost, and exactly what worker-side abstraction
            # needs (Vocabulary.mask_sets_projected).  Each shard ships
            # ONE flat projected row list plus per-object counts, so
            # projection is a single C-level pass per shard instead of
            # a python call per object.
            from itertools import chain

            project = self.vocabulary.project_rows
            payloads = []
            for offset, count in self._spans:
                objects = self._objects[offset : offset + count]
                payloads.append(
                    (
                        offset,
                        count,
                        [len(obj.rows) for obj in objects],
                        project(
                            chain.from_iterable(obj.rows for obj in objects)
                        ),
                    )
                )
            self._shipped_token = pool.build_shards(self.vocabulary, payloads)
        else:
            from repro.parallel import shard_payloads

            self._shipped_token = pool.load_shards(
                shard_payloads(self._shards)
            )
        return self._shipped_token

    def _pool_evaluate(self, op: str, compiled: CompiledQuery) -> list:
        """One pool round trip with re-ship-and-retry on stale state.

        Stale answers happen when another backend sharing the pool
        shipped its own load since ours; re-shipping restores this
        backend's state and the retry answers from it.  A worker crash
        closes the pool — an owned pool is forgotten so the next
        evaluation starts a fresh one, and the error propagates either
        way.
        """
        from repro.parallel import StaleShardStateError, WorkerCrashError

        try:
            pool = self._worker_pool()
            token = (
                self._shipped_token
                if self._shipped_token is not None
                else self._ship()
            )
            evaluate = (
                pool.evaluate_bits if op == "bits" else pool.evaluate_labels
            )
            for retry in (False, True):
                try:
                    return evaluate(token, compiled)
                except StaleShardStateError:
                    if retry:
                        raise
                    token = self._ship()
            raise AssertionError("unreachable")  # pragma: no cover
        except WorkerCrashError:
            self._lease.reset_after_crash()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the owned worker pool; safe to call twice (no-op).

        An injected ``pool=`` is caller-owned and stays open; the
        backend merely stops using it.
        """
        if self._lease is not None:
            self._lease.release()
        self._shipped_token = None

    def __enter__(self) -> "ShardedBitmaskBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _compiled(self, query: QhornQuery | CompiledQuery) -> CompiledQuery:
        check_width(query, self.vocabulary)
        return query.compile() if isinstance(query, QhornQuery) else query

    def _shard_answers(self, compiled: CompiledQuery) -> list[int]:
        """Per-shard answer bitsets (shard-local positions), shard order."""
        if self._lease is not None:
            if not self._spans:  # nothing to evaluate (and, in raw
                return []        # ingest, nothing was built locally)
            return [bits for _offset, bits in self._pool_evaluate("bits", compiled)]
        shards = self._shards
        if self.executor is not None and len(shards) > 1:
            # A plain function pickles by name, so process executors
            # work too.
            return list(
                self.executor.map(
                    Shard.matching_bits, shards, repeat(compiled)
                )
            )
        return [shard.matching_bits(compiled) for shard in shards]

    def matching_bits(self, query: QhornQuery | CompiledQuery) -> int:
        self._ensure_fresh()
        compiled = self._compiled(query)
        answers = 0
        for (offset, _count), bits in zip(
            self._spans, self._shard_answers(compiled)
        ):
            answers |= bits << offset
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
        if objects is None:
            if self._lease is not None and self._spans:
                # Full-relation labeling is the pool's best case: workers
                # run the kernel AND the label extraction; only compact
                # bool lists come back, reassembled in shard order.
                labels: list[bool] = []
                for _offset, shard_labels in self._pool_evaluate(
                    "labels", compiled
                ):
                    labels.extend(shard_labels)
                return labels
            answers = self._shard_answers(compiled)
            # Extract shard by shard so every bitset stays shard-width.
            labels = []
            for (_offset, count), bits in zip(self._spans, answers):
                labels.extend(labels_of(bits, count))
            return labels
        answers = self._shard_answers(compiled)
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
        if self._shards is not None:
            masks = sum(len(s.inverted) for s in self._shards)
            layout = f"{masks} inverted entries"
        else:
            layout = "raw ingest (abstraction runs worker-side)"
        pool = self._lease.pool if self._lease is not None else None
        if pool is not None and not pool.closed:
            mode = f", {pool.processes}-process pool"
        elif self._lease is not None and not self._lease.closed:
            mode = ", process pool (workers start on first evaluation)"
        elif self.executor is not None:
            mode = ", parallel"
        else:
            mode = ""
        return (
            f"sharded: {len(self._objects)} objects in "
            f"{len(self._spans)} shard(s) of ≤{self.shard_size}, "
            f"{layout}" + mode
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedBitmaskBackend({len(self.relation)} objects, "
            f"shard_size={self.shard_size})"
        )
