"""The shard-worker process: one message loop, persistent local state.

A worker is the far end of :class:`~repro.parallel.pool.ShardWorkerPool`'s
pipe protocol (DESIGN.md §2d).  It holds two kinds of state *between*
requests, which is the whole point of the pool — the expensive payloads
cross the process boundary once, not per evaluation:

* **shard state** — its assigned slice of a sharded backend's shards,
  tagged with the pool-issued *state token* of the load that shipped
  them.  Shards arrive either **built** (``"shards"``: the coordinator
  abstracted the rows and ships inverted indexes) or **raw**
  (``"build_shards"``: raw shard rows plus the vocabulary; the worker
  runs the abstraction itself — the parallel-ingest path).  Either way,
  per evaluation only a compiled query arrives and only bitsets (or
  extracted label lists) leave;
* **oracle state** — membership oracles keyed by token, each an
  independent copy (or locally constructed from a shipped factory), so
  :class:`~repro.oracle.parallel.ParallelOracle` can fan question chunks
  out without re-pickling the oracle.

Messages are plain tuples ``(op, ...)`` and every reply is
``("ok", result)``, ``("stale", have_token)`` or ``("error", type_name,
message, traceback_text)``; the full table lives in DESIGN.md §2d.  A
worker answers requests strictly in arrival order (the pipe is FIFO),
which is what lets the coordinator reassemble replies positionally.

The token check on evaluation requests is the stale-state safety net:
the coordinator names the state token its answer must come from, and a
worker holding a different load answers ``("stale", ...)`` instead of
silently evaluating over outdated shards (e.g. after another backend
sharing the pool re-shipped its own state).
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Iterator, Mapping

from repro.data.backends.sharded import Shard
from repro.data.index import labels_of

__all__ = ["worker_main"]

#: Built-shard payload shape: ``(offset, count, inverted, all_bits)`` —
#: exactly the wire fields of the sharded backend's ``Shard``, already
#: built, so the worker never re-abstracts rows.
ShardPayload = tuple[int, int, dict[int, int], int]

#: Raw-shard payload shape: ``(offset, count, row_counts, flat_rows)`` —
#: the shard's rows projected onto the proposition-read attributes
#: (``Vocabulary.project_rows``: value tuples, with full-dict fallback
#: rows) as ONE flat list, plus the per-object row counts that let the
#: worker regroup them.  Flat because the coordinator projects a whole
#: shard in a single C-level pass — per-object lists would cost a
#: python call per object, which at relation scale is most of the
#: coordinator-side ingest time.  The worker abstracts the regrouped
#: rows through the shipped vocabulary (parallel ingest).
RawShardPayload = tuple[int, int, list[int], list[tuple | Mapping[str, Any]]]


def _regroup(
    row_counts: list[int], flat_rows: list
) -> "Iterator[list]":
    """Slice a flat projected-row list back into per-object row lists."""
    start = 0
    for n in row_counts:
        yield flat_rows[start : start + n]
        start += n


class _WorkerState:
    """Everything one worker keeps between requests."""

    __slots__ = ("shards", "state_token", "oracles")

    def __init__(self) -> None:
        self.shards: list[Shard] = []
        self.state_token: int | None = None
        self.oracles: dict[int, Any] = {}


def _handle(message: tuple, state: _WorkerState) -> tuple:
    """Compute the reply for one request against the persistent state."""
    op = message[0]
    if op == "shards":
        token, payloads = message[1], message[2]
        state.shards = [Shard.from_payload(p) for p in payloads]
        state.state_token = token
        return ("ok", len(state.shards))
    if op == "build_shards":
        # Parallel ingest: abstraction (the expensive part of a build)
        # runs here, on this worker's slice, not in the coordinator.
        token, vocabulary, payloads = message[1], message[2], message[3]
        state.shards = [
            Shard(
                offset,
                vocabulary.mask_sets_projected(
                    _regroup(row_counts, flat_rows)
                ),
            )
            for offset, _count, row_counts, flat_rows in payloads
        ]
        state.state_token = token
        return ("ok", len(state.shards))
    if op in ("eval_bits", "eval_labels", "dump_shards"):
        if message[1] != state.state_token:
            return ("stale", state.state_token)
        if op == "dump_shards":
            # Introspection for the build-equivalence tests: the built
            # state in wire form, whichever ingest path produced it.
            return (
                "ok",
                [
                    (s.offset, s.count, s.inverted, s.all_bits)
                    for s in state.shards
                ],
            )
        compiled = message[2]
        if op == "eval_bits":
            return (
                "ok",
                [(s.offset, s.matching_bits(compiled)) for s in state.shards],
            )
        return (
            "ok",
            [
                (s.offset, labels_of(s.matching_bits(compiled), s.count))
                for s in state.shards
            ],
        )
    if op == "oracle":
        token, payload, is_factory = message[1], message[2], message[3]
        state.oracles[token] = payload() if is_factory else payload
        return ("ok", None)
    if op == "oracle_drop":
        state.oracles.pop(message[1], None)
        return ("ok", None)
    if op == "ask":
        from repro.oracle.base import ask_all

        oracle = state.oracles.get(message[1])
        if oracle is None:
            raise KeyError(f"no oracle shipped under token {message[1]}")
        return ("ok", ask_all(oracle, message[2]))
    if op == "ping":
        return ("ok", message[1])
    raise ValueError(f"unknown worker operation {op!r}")


def worker_main(connection: Any) -> None:
    """Serve pool requests over ``connection`` until ``close``/EOF.

    Runs in the child process.  Handler failures are reported as
    ``error`` replies and the loop continues — a broken request must not
    take down sibling state.  ``SystemExit`` (and the explicit ``abort``
    request, used by the crash-path tests) terminate the process without
    a reply, which the coordinator surfaces as
    :class:`~repro.parallel.pool.WorkerCrashError`.
    """
    state = _WorkerState()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "close":
            break
        if op == "abort":  # crash simulation: die without replying
            os._exit(1)
        try:
            reply = _handle(message, state)
        except Exception as exc:
            reply = (
                "error",
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            )
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            break
