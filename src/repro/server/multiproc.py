"""Multi-process serving tier: an acceptor fleet over one store (§2h).

One :class:`~repro.server.core.RoundServer` is one event loop is one
core.  A :class:`ServerFleet` forks N worker processes, each running its
own ``RoundServer`` on the *same* host:port via ``SO_REUSEPORT`` — the
kernel balances incoming connections across the listening sockets — with
the file-backed :class:`~repro.server.store.SessionStore` as the only
shared state.  A reconnect that lands on a different worker rebuilds the
parked session from the store exactly the way a post-restart reconnect
does (``_require_session``), guarded by the store's claim tokens: a
session live on another running worker is rejected with a recoverable
error, one owned by a killed worker is stolen and resumed.  The store
handoff, not the kernel's choice of worker, is what makes hops correct.
A platform without ``SO_REUSEPORT`` gets no fleet: the constructor
raises, and one process serves.

Lifecycle: ``start()`` blocks until every worker reports listening;
``stop()`` fans SIGTERM out, joins every worker, and returns the
fleet-wide stats merged from the per-worker counters each server
persisted on clean shutdown.  ``kill_worker()`` SIGKILLs one worker —
the crash the ownership-steal path exists for.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import sys
from pathlib import Path

from repro.server.core import check_limits
from repro.server.store import SessionStore

__all__ = ["ServerFleet", "default_workers"]

#: Seconds start() waits for every worker's "listening" handshake.
START_TIMEOUT = 30.0


def default_workers() -> int:
    """Fleet size for ``--workers 0``: one worker per core."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
#
# Module-level so the fleet works under the ``spawn`` start method too
# (the fleet prefers ``fork`` where the platform has it).  Everything
# a worker needs crosses as plain picklable values; the worker opens its
# *own* SessionStore connection — a sqlite handle must never cross fork,
# which is the whole point of per-worker connections (§2h).


def _worker_main(
    index: int,
    store_path: str,
    host: str,
    port: int,
    idle_timeout: float | None,
    ready,
) -> None:
    import asyncio

    try:
        asyncio.run(
            _worker_serve(
                index,
                store_path,
                host,
                port,
                idle_timeout,
                ready,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal race at exit
        pass


async def _worker_serve(
    index: int,
    store_path: str,
    host: str,
    port: int,
    idle_timeout: float | None,
    ready,
) -> None:
    import asyncio

    from repro.server.core import RoundServer

    store = SessionStore(store_path)
    server = RoundServer(
        store, idle_timeout=idle_timeout, worker_id=f"w{index}"
    )
    try:
        await server.start(host, port, reuse_port=True)
    except Exception as error:
        ready.put(("error", index, f"{type(error).__name__}: {error}"))
        store.close()
        return
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            signal.signal(signum, lambda *_: stop.set())
    ready.put(("listening", index, None))
    try:
        await stop.wait()
    finally:
        await server.close()  # releases claims, persists worker stats
        store.close()


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------


class ServerFleet:
    """N ``RoundServer`` worker processes behind one host:port.

    Parameters
    ----------
    store:
        Path to the shared sqlite session store.  Must be file-backed:
        the store is the fleet's only shared state, so ``":memory:"``
        (process-local by definition) is rejected.
    workers:
        Process count; ``0`` means one per core.

    The workers share the port through ``SO_REUSEPORT``; construction
    raises ``RuntimeError`` on a platform without it, and ``ValueError``
    on a negative ``workers`` or on an idle timeout
    :func:`~repro.server.core.check_limits` rejects, before forking.
    """

    def __init__(
        self,
        store: str | Path,
        workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout: float | None = None,
    ) -> None:
        self.store_path = str(store)
        if self.store_path == ":memory:":
            raise ValueError(
                "a ServerFleet needs a file-backed store — the store is "
                "the only state workers share"
            )
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "a ServerFleet needs socket.SO_REUSEPORT, which this "
                "platform lacks — its workers share one port through it; "
                "serve from one process instead"
            )
        if workers < 0:
            raise ValueError(f"workers must be 0 or more, got {workers}")
        check_limits(idle_timeout)
        self.workers = workers if workers > 0 else default_workers()
        self.host = host
        self.requested_port = port
        self.idle_timeout = idle_timeout
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._port: int | None = None
        context_name = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._context = multiprocessing.get_context(context_name)

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("fleet not started")
        return self._port

    def alive(self) -> list[int]:
        """Indexes of workers still running."""
        return [
            index
            for index, process in enumerate(self._processes)
            if process.is_alive()
        ]

    # ------------------------------------------------------------------
    def start(self, timeout: float = START_TIMEOUT) -> None:
        """Fork the workers and block until every one is listening."""
        if self._processes:
            raise RuntimeError("fleet already started")
        # A fresh fleet means fresh fleet-wide counters (old rows would
        # double-count into the merged stats line).
        with SessionStore(self.store_path) as store:
            store.clear_worker_stats()
        # Resolve port 0 once, and hold the placeholder bound (but never
        # listening — only listeners receive connections) until every
        # worker has bound the same port.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        ready = self._context.Queue()
        try:
            placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            placeholder.bind((self.host, self.requested_port))
            port = placeholder.getsockname()[1]
            for index in range(self.workers):
                process = self._context.Process(
                    target=_worker_main,
                    args=(
                        index,
                        self.store_path,
                        self.host,
                        port,
                        self.idle_timeout,
                        ready,
                    ),
                    daemon=True,
                    name=f"repro-serve-w{index}",
                )
                process.start()
                self._processes.append(process)
            self._await_ready(ready, timeout)
        except Exception:
            self._terminate_all()
            raise
        finally:
            placeholder.close()
        self._port = port

    def _await_ready(self, ready, timeout: float) -> None:
        import queue as queue_module

        for listening in range(self.workers):
            try:
                kind, index, error = ready.get(timeout=timeout)
            except queue_module.Empty:
                raise TimeoutError(
                    f"fleet start timed out: {listening} of "
                    f"{self.workers} workers listening"
                ) from None
            if kind == "error":
                raise RuntimeError(
                    f"fleet worker {index} failed to start: {error}"
                )

    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker — the crash-recovery story under test.

        Its live sessions stay claimed by a dead pid in the store, which
        is exactly what :meth:`SessionStore.claim` steals from; its
        in-flight connections drop; new connections flow to the
        surviving listeners.
        """
        self._processes[index].kill()
        self._processes[index].join(timeout=10)

    def terminate(self) -> None:
        """Fan SIGTERM out to every live worker (clean shutdown)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()

    def stop(self, timeout: float = 30.0) -> dict[str, int]:
        """SIGTERM fan-out, join every worker, merge the fleet stats."""
        self.terminate()
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5)
        self._processes = []
        self._port = None
        with SessionStore(self.store_path) as store:
            return store.fleet_stats()

    def _terminate_all(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self._processes = []

    def __enter__(self) -> "ServerFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServerFleet(workers={self.workers}, "
            f"store={self.store_path!r})"
        )


def print_listening(fleet: ServerFleet, stream=None) -> None:
    """The one-line JSON handshake ``repro serve`` prints on startup."""
    print(
        json.dumps(
            {
                "type": "listening",
                "host": fleet.host,
                "port": fleet.port,
                "store": fleet.store_path,
                "workers": fleet.workers,
            }
        ),
        file=stream if stream is not None else sys.stdout,
        flush=True,
    )
