"""``ShardWorkerPool``: persistent worker processes for shard evaluation.

ROADMAP names the gap directly: the sharded backend accepts a
caller-owned :mod:`concurrent.futures` executor, but the GIL makes
thread pools useless on the one evaluation kernel (the big-int
:class:`~repro.data.index.BitsetKernel` every shard is), and a stock
``ProcessPoolExecutor`` re-pickles the shard state on **every** submit.
This pool inverts that cost: each worker process receives its slice of
the built shard payloads *once* and keeps it between calls, so per
evaluation only the compiled query crosses the boundary outward and only
answer bitsets (or extracted label lists) come back — a few hundred
bytes per round trip instead of the whole inverted index.

Coordination is deliberately simple (DESIGN.md §2d):

* one duplex pipe per worker, at most **one request in flight per
  worker** (wave scheduling), so the protocol can never deadlock on pipe
  buffers and replies are matched to requests purely by order;
* shard loads are tagged with a pool-issued monotone *state token*;
  every evaluation request names the token it expects, and a mismatch
  raises :class:`StaleShardStateError` instead of returning answers from
  outdated state (the worker-side safety net behind the relation
  ``version`` contract of DESIGN.md §2c);
* a dead worker (crash, ``os._exit``, kill) surfaces as
  :class:`WorkerCrashError` on the *current* call and permanently breaks
  the pool — callers that own their pool (the sharded backend, the
  parallel oracle) respond by building a fresh one;
* shutdown is exception-safe and idempotent: ``close()`` (also the
  context-manager exit) politely asks workers to exit, then terminates
  stragglers; an :mod:`atexit` guard closes pools that were never closed
  explicitly, so interpreter shutdown never hangs on live children.

Start method: ``fork`` where the platform offers it (the payloads were
already shipped explicitly, so fork is purely a startup-latency win),
``spawn`` otherwise.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
from typing import Any, Iterable, Sequence

from repro.parallel.worker import RawShardPayload, ShardPayload, worker_main

__all__ = [
    "PoolLease",
    "ShardWorkerPool",
    "WorkerCrashError",
    "WorkerTaskError",
    "StaleShardStateError",
    "resolve_processes",
    "shard_payloads",
]


class WorkerCrashError(RuntimeError):
    """A worker process died before answering (crash, signal, exit)."""


class WorkerTaskError(RuntimeError):
    """A request raised inside a worker; carries the remote traceback."""

    def __init__(self, type_name: str, message: str, remote_traceback: str):
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.remote_traceback = remote_traceback


class StaleShardStateError(RuntimeError):
    """A worker held shard state from a different load than requested.

    Raised instead of silently answering from outdated shards.  The
    remedy is to re-ship: backends call ``load_shards`` again (which
    ``ShardedBitmaskBackend`` does automatically via ``refresh()`` /
    its stale-retry path).
    """

    def __init__(self, expected: int | None, held: int | None) -> None:
        super().__init__(
            f"worker shard state is stale (expected load token {expected}, "
            f"worker holds {held}); re-ship via load_shards()/refresh()"
        )
        self.expected = expected
        self.held = held


def resolve_processes(processes: int) -> int:
    """Worker-count convention shared by the pool, backend and CLI:
    ``0`` means every core (``os.cpu_count()``), positive counts are
    taken literally, negatives are rejected."""
    if processes < 0:
        raise ValueError(f"processes must be >= 0, got {processes}")
    return processes if processes else (os.cpu_count() or 1)


class _Worker:
    """Coordinator-side handle: process + pipe endpoint."""

    __slots__ = ("process", "connection")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection


class ShardWorkerPool:
    """N persistent worker processes answering the DESIGN.md §2d protocol.

    Parameters
    ----------
    processes:
        Worker count; ``0`` (the default) means one per core.
    start_method:
        Explicit :mod:`multiprocessing` start method; defaults to
        ``fork`` when available, else ``spawn``.
    """

    def __init__(
        self, processes: int = 0, start_method: str | None = None
    ) -> None:
        count = resolve_processes(processes)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(start_method)
        self._workers: list[_Worker] = []
        self._closed = False
        self._tokens = itertools.count(1)
        for _ in range(count):
            ours, theirs = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main, args=(theirs,), daemon=True
            )
            process.start()
            theirs.close()  # the child's end lives in the child
            self._workers.append(_Worker(process, ours))
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def processes(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut every worker down; safe to call twice (a no-op then)."""
        if self._closed:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        for worker in self._workers:
            try:
                worker.connection.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck child
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"ShardWorkerPool({self.processes} workers, {state})"

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the worker pool is closed")

    def _crash(self, index: int, cause: BaseException) -> WorkerCrashError:
        """Translate a dead pipe into a clean error and break the pool."""
        process = self._workers[index].process
        process.join(timeout=0.5)
        error = WorkerCrashError(
            f"worker {index} (pid {process.pid}) died mid-request "
            f"(exitcode {process.exitcode}); the pool is now closed"
        )
        error.__cause__ = cause
        self.close()
        return error

    def _send(self, index: int, message: tuple) -> None:
        try:
            self._workers[index].connection.send(message)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise self._crash(index, exc) from exc

    def _recv(self, index: int) -> Any:
        try:
            reply = self._workers[index].connection.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise self._crash(index, exc) from exc
        kind = reply[0]
        if kind == "ok":
            return reply[1]
        if kind == "stale":
            raise StaleShardStateError(expected=None, held=reply[1])
        if kind == "error":
            raise WorkerTaskError(reply[1], reply[2], reply[3])
        raise RuntimeError(  # pragma: no cover - protocol violation
            f"malformed worker reply {reply!r}"
        )

    def _broadcast(self, messages: Sequence[tuple]) -> list[Any]:
        """One request per worker (``messages[i]`` → worker ``i``), all
        pipelined, replies in worker order.

        Every reply is drained even when one of them is an error —
        leaving a reply unread would desynchronize that worker's pipe
        and hand its answer to the *next* request.  The first error is
        re-raised after the drain.  (A crash closes the pool, so there
        is nothing left to drain.)
        """
        for index, message in enumerate(messages):
            self._send(index, message)
        results: list[Any] = []
        first_error: Exception | None = None
        for index in range(len(messages)):
            try:
                results.append(self._recv(index))
            except WorkerCrashError:
                raise
            except (StaleShardStateError, WorkerTaskError) as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------
    # Shard evaluation
    # ------------------------------------------------------------------
    def load_shards(self, payloads: Sequence[ShardPayload]) -> int:
        """Ship built shard payloads, striped round-robin across workers,
        and return the state token naming this load.

        This is the invalidation broadcast: a re-ship replaces every
        worker's shard state and retires the previous token, so requests
        still naming it fail with :class:`StaleShardStateError` instead
        of mixing answers from two relation versions.
        """
        self._check_open()
        token = next(self._tokens)
        shares = [
            ("shards", token, list(payloads[index :: self.processes]))
            for index in range(self.processes)
        ]
        self._broadcast(shares)
        return token

    def build_shards(
        self, vocabulary: Any, payloads: Sequence[RawShardPayload]
    ) -> int:
        """Ship **raw** shard rows plus the vocabulary and let the
        workers run the abstraction themselves — the parallel-ingest
        path.  Same striping, token and invalidation semantics as
        :meth:`load_shards`; the only difference is where the build cost
        lands (each worker abstracts its own slice concurrently instead
        of the coordinator abstracting everything before shipping).
        """
        self._check_open()
        token = next(self._tokens)
        shares = [
            (
                "build_shards",
                token,
                vocabulary,
                list(payloads[index :: self.processes]),
            )
            for index in range(self.processes)
        ]
        self._broadcast(shares)
        return token

    def dump_shards(self, token: int) -> list[ShardPayload]:
        """The built shard state in wire form, reassembled in shard
        (offset) order — introspection for the build-equivalence tests,
        which assert a raw worker-side build is bit-identical to a
        coordinator build."""
        self._check_open()
        try:
            replies = self._broadcast(
                [("dump_shards", token)] * self.processes
            )
        except StaleShardStateError as exc:
            raise StaleShardStateError(expected=token, held=exc.held) from None
        merged = [payload for reply in replies for payload in reply]
        merged.sort(key=lambda payload: payload[0])
        return merged

    def _evaluate(self, op: str, token: int, compiled: Any) -> list:
        self._check_open()
        try:
            replies = self._broadcast(
                [(op, token, compiled)] * self.processes
            )
        except StaleShardStateError as exc:
            raise StaleShardStateError(expected=token, held=exc.held) from None
        merged = [pair for reply in replies for pair in reply]
        merged.sort(key=lambda pair: pair[0])
        return merged

    def evaluate_bits(
        self, token: int, compiled: Any
    ) -> list[tuple[int, int]]:
        """Per-shard answer bitsets ``(offset, shard-local bits)``, in
        shard (offset) order, for the load named by ``token``."""
        return self._evaluate("eval_bits", token, compiled)

    def evaluate_labels(
        self, token: int, compiled: Any
    ) -> list[tuple[int, list[bool]]]:
        """Per-shard extracted label lists ``(offset, labels)``, in shard
        order — the full-relation labeling pass done worker-side."""
        return self._evaluate("eval_labels", token, compiled)

    # ------------------------------------------------------------------
    # Oracle dispatch
    # ------------------------------------------------------------------
    def set_oracle(
        self, token: int, oracle: Any, factory: bool = False
    ) -> None:
        """Ship an oracle (or a zero-argument factory constructing one)
        to every worker once, keyed by ``token``."""
        self._check_open()
        self._broadcast(
            [("oracle", token, oracle, factory)] * self.processes
        )

    def drop_oracle(self, token: int) -> None:
        """Release the oracle shipped under ``token`` on every worker."""
        if self._closed:
            return
        self._broadcast([("oracle_drop", token)] * self.processes)

    def ask_chunks(
        self, token: int, chunks: Sequence[Sequence[Any]]
    ) -> list[list[bool]]:
        """Answer question chunks through the shipped oracle, fanning
        them across workers, and return the answers **in submission
        order** — chunk ``i``'s answers sit at result index ``i``
        whichever worker computed them, which is what preserves the
        sequential-equivalence contract (DESIGN.md §2b/§2d).

        Scheduling is wave-based: each wave sends at most one chunk per
        worker and collects the replies before the next wave, so one
        request is in flight per worker at any time.
        """
        self._check_open()
        results: list[list[bool] | None] = [None] * len(chunks)
        pending = iter(enumerate(chunks))
        while True:
            wave: list[tuple[int, int]] = []
            for worker_index in range(self.processes):
                entry = next(pending, None)
                if entry is None:
                    break
                chunk_index, chunk = entry
                self._send(
                    worker_index, ("ask", token, list(chunk))
                )
                wave.append((worker_index, chunk_index))
            if not wave:
                break
            first_error: Exception | None = None
            for worker_index, chunk_index in wave:
                try:
                    results[chunk_index] = self._recv(worker_index)
                except WorkerCrashError:
                    raise
                except (StaleShardStateError, WorkerTaskError) as exc:
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
        return [answers for answers in results if answers is not None]

    def ping(self, payload: Any = None) -> list[Any]:
        """Round-trip a payload through every worker (health check)."""
        self._check_open()
        return self._broadcast([("ping", payload)] * self.processes)


def shard_payloads(shards: Iterable[Any]) -> list[ShardPayload]:
    """Extract the wire payloads from built ``Shard`` objects."""
    return [
        (shard.offset, shard.count, shard.inverted, shard.all_bits)
        for shard in shards
    ]


class PoolLease:
    """The owner/borrower lifecycle shared by every pool consumer.

    The sharded backend and the parallel oracle need the same state
    machine around their pool: create an **owned** pool lazily (and a
    fresh one after a crash), validate that an **injected** pool is
    still alive, refuse use after release, and release idempotently.
    This helper is that machine, so the consumers cannot drift apart.

    ``generation`` increments every time :meth:`acquire` creates a pool;
    consumers compare it against the generation they last shipped state
    to, which is how re-shipping after crash recovery (and first-use
    shipping on injected pools) stays a one-line check.
    """

    def __init__(
        self, pool: ShardWorkerPool | None = None, processes: int = 0
    ) -> None:
        self.owns = pool is None
        if self.owns:
            resolve_processes(processes)  # validate eagerly, build lazily
        self.processes = processes
        self._pool = pool
        self.generation = 0
        self.closed = False

    @property
    def pool(self) -> ShardWorkerPool | None:
        """The current pool, without creating one (introspection only)."""
        return self._pool

    def acquire(self) -> ShardWorkerPool:
        """The live pool, creating a fresh owned one when necessary."""
        if self.closed:
            raise RuntimeError("the worker-pool lease is closed")
        if self._pool is None or self._pool.closed:
            if not self.owns:
                raise RuntimeError(
                    "the injected worker pool is closed; the pool owner "
                    "must supply a live pool"
                )
            self._pool = ShardWorkerPool(self.processes)
            self.generation += 1
        return self._pool

    def reset_after_crash(self) -> None:
        """Forget a crashed owned pool so :meth:`acquire` starts a fresh
        one; an injected pool stays (its owner decides what happens)."""
        if self.owns:
            self._pool = None

    def release(self) -> ShardWorkerPool | None:
        """Idempotent teardown.  Closes an owned pool outright; returns
        a still-live *borrowed* pool (for consumer-specific cleanup,
        e.g. dropping a shipped oracle) or ``None``."""
        if self.closed:
            return None
        self.closed = True
        pool, self._pool = self._pool, None
        if pool is None or pool.closed:
            return None
        if self.owns:
            pool.close()
            return None
        return pool
