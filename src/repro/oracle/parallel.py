"""Process-parallel oracle dispatch: ``ask_all`` chunks across workers.

The batch-first protocol (DESIGN.md §2b) made a whole question list the
unit of interaction, and :func:`~repro.oracle.base.ask_all` already
splits huge batches into bounded chunks (``ASK_ALL_CHUNK_SIZE``).  Those
chunks are the natural dispatch unit for multi-core answering — exactly
the ROADMAP's async/multi-process oracle direction —  and
:class:`ParallelOracle` is the wrapper that fans them out over a
:class:`~repro.parallel.ShardWorkerPool`.

Sequential equivalence is preserved structurally, not probabilistically:

* the wrapped oracle must be **deterministic and effectively stateless**
  (answers depend only on the question) — :class:`QueryOracle`,
  :class:`FunctionOracle` over a pure function, or a factory building a
  fresh :class:`SqlQueryOracle` per worker all qualify.  Each worker
  holds an independent copy, so a stateful inner oracle would diverge;
  stateful *wrappers* (``CountingOracle``, ``CachingOracle``,
  ``NoisyOracle``, transcripts) belong **outside** the parallel layer,
  where they observe the reassembled answer stream;
* chunk answers are reassembled **in submission order**
  (:meth:`ShardWorkerPool.ask_chunks` keyes replies by chunk index), so
  ``ask_many(qs)`` returns exactly ``[ask(q) for q in qs]`` whatever
  worker answered what — CountingOracle statistics and seeded
  NoisyOracle flips on top stay bit-identical to the sequential path
  (pinned by ``tests/properties/test_prop_parallel.py``).

Batches of at most one chunk are answered in-process: dispatch cannot
help them, and the answers are identical by the determinism requirement.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from repro.core.tuples import Question
from repro.oracle.base import ASK_ALL_CHUNK_SIZE, MembershipOracle

__all__ = ["ParallelOracle"]

#: Process-global oracle tokens: unique per ParallelOracle instance even
#: when several share one worker pool.
_TOKENS = itertools.count(1)


class ParallelOracle:
    """Answers ``ask_many`` batches through a pool of worker processes.

    Parameters
    ----------
    inner:
        The wrapped oracle — picklable, deterministic, effectively
        stateless (see the module docstring).  Exactly one of ``inner``
        and ``factory`` must be given.
    factory:
        Zero-argument picklable callable building the oracle; shipped to
        each worker, which constructs its own instance.  This is the
        path for oracles that are deterministic but not picklable —
        e.g. ``functools.partial(SqlQueryOracle, target)``, where every
        worker gets a private shared-memory SQLite pool.
    pool:
        Caller-owned :class:`~repro.parallel.ShardWorkerPool` to
        dispatch through (shareable with a sharded backend); the oracle
        never closes it.  When omitted, the oracle creates and owns a
        pool of ``processes`` workers lazily on the first dispatched
        batch and closes it in :meth:`close` (also the context manager
        and an :mod:`atexit` guard inside the pool).
    processes:
        Worker count for the owned pool (``0`` = one per core).
    chunk_size:
        Questions per dispatched chunk; defaults to the ``ask_all``
        transport chunk (:data:`ASK_ALL_CHUNK_SIZE`).  Batch boundaries
        are unobservable (DESIGN.md §2b), so the value is purely a
        granularity/latency knob.
    """

    def __init__(
        self,
        inner: MembershipOracle | None = None,
        *,
        factory: Callable[[], MembershipOracle] | None = None,
        pool=None,
        processes: int = 0,
        chunk_size: int = ASK_ALL_CHUNK_SIZE,
    ) -> None:
        if (inner is None) == (factory is None):
            raise ValueError("exactly one of inner/factory must be given")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        from repro.parallel import PoolLease

        self._factory = factory
        self._local = inner if inner is not None else factory()
        self.inner = self._local
        self.n = self._local.n
        self.chunk_size = chunk_size
        self.processes = processes
        self._lease = PoolLease(pool=pool, processes=processes)
        self._token = next(_TOKENS)
        self._shipped_generation: int | None = None

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------
    def _worker_pool(self):
        pool = self._lease.acquire()
        if self._shipped_generation != self._lease.generation:
            # Ship the oracle (or its factory) once per pool lifetime.
            if self._factory is not None:
                pool.set_oracle(self._token, self._factory, factory=True)
            else:
                pool.set_oracle(self._token, self._local)
            self._shipped_generation = self._lease.generation
        return pool

    # ------------------------------------------------------------------
    # The oracle protocol
    # ------------------------------------------------------------------
    def ask(self, question: Question) -> bool:
        """Single questions never cross the process boundary."""
        return self._local.ask(question)

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Label a batch; multi-chunk batches fan out across workers.

        Positionally equivalent to a sequential :meth:`ask` loop by the
        determinism requirement plus submission-order reassembly.
        """
        from repro.parallel import WorkerCrashError

        questions = list(questions)
        size = self.chunk_size
        if len(questions) <= size:
            return self._local.ask_many(questions)
        chunks = [
            questions[start : start + size]
            for start in range(0, len(questions), size)
        ]
        try:
            replies = self._worker_pool().ask_chunks(self._token, chunks)
        except WorkerCrashError:
            self._lease.reset_after_crash()
            raise
        return [answer for chunk_answers in replies for answer in chunk_answers]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release pool resources; safe to call twice (a no-op then).

        An owned pool is closed outright; on a shared pool only this
        oracle's worker-side copies are dropped.
        """
        borrowed = self._lease.release()
        if borrowed is not None:
            borrowed.drop_oracle(self._token)

    def __enter__(self) -> "ParallelOracle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pool = (
            f"processes={self.processes}" if self._lease.owns else "shared"
        )
        return (
            f"ParallelOracle({self._local!r}, {pool}, "
            f"chunk_size={self.chunk_size})"
        )
