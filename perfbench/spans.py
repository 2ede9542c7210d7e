"""Span recorder for the traced run.

The traced run installs timing wrappers around the public entry points of
each layer, from this file; nothing under ``src/`` changes.  Span ``i`` is
column entry ``i`` of:

* ``names`` -- the wrapped entry point;
* ``starts``/``ends`` -- ``time.perf_counter()`` seconds;
* ``parents`` -- the span open when this one began (``-1`` at top level);
  every wrapped call is synchronous, so one stack serves the event loop;
* ``tasks`` -- the asyncio task it ran on (``0`` off the loop);
* ``keys`` -- the dialogue's session id or the query's number.

Columns rather than one object per span keep the recorder from adding
hundreds of thousands of containers for the garbage collector to traverse.
Spans stay in memory and are written out when the run ends.  Collector
pauses are kept in their own list, each with the span that was open when it
began, because a ``gc.callbacks`` hook can fire in the middle of the
recorder's own bookkeeping.  A span's self time is its duration minus its
child spans and the collector pauses inside it.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import gzip
import json
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def _task_id() -> int:
    try:
        return id(asyncio.current_task())
    except RuntimeError:  # no running loop
        return 0


@dataclass
class LayerTime:
    """Calls into one wrapped entry point and the time they took."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0

    def mean_self_us(self) -> float:
        return self.self_s / self.calls * 1e6 if self.calls else 0.0

    def mean_total_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class SpanRecorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.tasks = array("Q")
        self.keys: list[Any] = []
        #: ``(start, end, generation, parent)`` per collector pass.
        self.gc_pauses: list[tuple[float, float, int, int]] = []
        #: Key for spans whose call arguments carry none (engine queries).
        self.current_key: Any = None
        #: Snapshot JSON bytes per ``SessionStore.save``.
        self.save_bytes: list[int] = []
        self._stack: list[int] = []
        self._gc_began: tuple[float, int] | None = None
        self._quiet = False
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enter(self, name: str, key: Any = None) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.tasks.append(_task_id())
        self.keys.append(self.current_key if key is None else key)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if self._quiet:
            return
        if phase == "start":
            stack = self._stack
            self._gc_began = (time.perf_counter(), stack[-1] if stack else -1)
        elif self._gc_began is not None:
            began, parent = self._gc_began
            self._gc_began = None
            self.gc_pauses.append(
                (began, time.perf_counter(), info["generation"], parent)
            )

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        key_of: Callable[[tuple], Any] | None = None,
        after: Callable[[tuple], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call."""
        original = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = enter(name, None if key_of is None else key_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                exit_(index)
                if after is not None:
                    after(args)

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer table reads."""
        from repro.core.query import QhornQuery
        from repro.data.engine import QueryEngine
        from repro.data.index import RelationIndex
        from repro.interactive.session import LearningSession
        from repro.server import core as server_core
        from repro.server.store import SessionStore

        def record_bytes(args: tuple) -> None:
            self.save_bytes.append(
                len(json.dumps(args[1].snapshot.to_dict()))
            )

        def session_arg(args: tuple) -> Any:
            return args[1]

        self.wrap(LearningSession, "start", "session.start")
        self.wrap(LearningSession, "feed", "session.feed")
        self.wrap(LearningSession, "snapshot", "session.snapshot")
        self.wrap(LearningSession, "resume", "session.resume")
        self.wrap(
            SessionStore,
            "save",
            "store.save",
            key_of=lambda args: args[1].session_id,
            after=record_bytes,
        )
        self.wrap(SessionStore, "load", "store.load", key_of=session_arg)
        self.wrap(SessionStore, "claim", "store.claim", key_of=session_arg)
        self.wrap(SessionStore, "release", "store.release", key_of=session_arg)
        # The server module imported these names; wrap the names it calls.
        self.wrap(
            server_core,
            "decode_answers",
            "protocol.decode",
            key_of=lambda args: args[0].get("session"),
        )
        self.wrap(server_core, "round_to_dict", "protocol.encode")
        self.wrap(server_core, "finished_to_dict", "protocol.encode")
        self.wrap(QhornQuery, "compile", "core.compile")
        self.wrap(RelationIndex, "__init__", "index.build")
        self.wrap(RelationIndex, "matching_bits", "index.matching_bits")
        self.wrap(QueryEngine, "execute_batch", "engine.execute_batch")
        gc.callbacks.append(self._on_gc)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def quiet_collect(self) -> None:
        """A full collection the benchmark forces, left out of the pauses."""
        self._quiet = True
        try:
            gc.collect()
        finally:
            self._quiet = False

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def assign_keys(self) -> None:
        """Key the spans whose arguments carried no session id.

        The server handles one message synchronously, so the spans of one
        message form a run of consecutive spans on one task.  Each run
        takes the key one of its keyed spans carries (``decode_answers``,
        ``SessionStore.save``/``load``/``claim``/``release`` all see the
        session id)."""
        tasks, keys = self.tasks, self.keys
        begin = 0
        while begin < len(tasks):
            end = begin
            while end < len(tasks) and tasks[end] == tasks[begin]:
                end += 1
            key = next((k for k in keys[begin:end] if k is not None), None)
            if key is not None:
                for index in range(begin, end):
                    if keys[index] is None:
                        keys[index] = key
            begin = end

    def layer_times(self) -> defaultdict[str, LayerTime]:
        """Calls, self time and total time per span name (zero for names
        never seen).

        Calls nested in ``session.resume`` are the replay and are kept
        under ``<name>@replay`` so live feeds and starts stay apart."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        children = [0.0] * len(names)
        in_replay = [False] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
                in_replay[index] = (
                    in_replay[parent] or names[parent] == "session.resume"
                )
        for began, ended, _, parent in self.gc_pauses:
            if parent >= 0:
                children[parent] += ended - began
        layers: defaultdict[str, LayerTime] = defaultdict(LayerTime)
        for index, name in enumerate(names):
            if in_replay[index]:
                name += "@replay"
            layer = layers[name]
            duration = ends[index] - starts[index]
            layer.calls += 1
            layer.total_s += duration
            layer.self_s += duration - children[index]
        return layers

    def top_level(self) -> list[int]:
        """Indices of the spans no other span encloses."""
        return [index for index, parent in enumerate(self.parents) if parent < 0]

    def top_level_s(self) -> float:
        """Wall time inside top-level spans and top-level collector passes."""
        starts, ends = self.starts, self.ends
        total = sum(ends[index] - starts[index] for index in self.top_level())
        return total + sum(
            ended - began
            for began, ended, _, parent in self.gc_pauses
            if parent < 0
        )

    def gc_summary(self) -> tuple[float, int]:
        """Total collector pause in ms and the number of gen-2 passes."""
        pause = sum(ended - began for began, ended, _, _ in self.gc_pauses)
        gen2 = sum(1 for _, _, generation, _ in self.gc_pauses if generation == 2)
        return pause * 1000, gen2

    def write(self, path: Path) -> None:
        """Gzipped JSON lines, one array per span: name, start, end,
        parent, key; collector passes follow as ``gc.gen<N>`` spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.keys):
                handle.write(json.dumps(row) + "\n")
            for began, ended, generation, parent in self.gc_pauses:
                handle.write(
                    json.dumps([f"gc.gen{generation}", began, ended, parent, None])
                    + "\n"
                )
