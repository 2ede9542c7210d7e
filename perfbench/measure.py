"""Order statistics, host-speed probes, and the host diagnostics recorded
next to every run.

On a shared host the same Python code runs up to twice as fast at one
moment as at another, and the slow spells last from seconds to minutes, so
no statistic taken within one run separates a slow host from a slow
program.  The benchmark therefore times a fixed probe -- pure stdlib work
that never changes -- on either side of every unit of work it times, and
scales that unit's time by how long the probe took against the probe's
reference time.  Every time it reports is the time the work would take on
a host that runs the probe in exactly that long.  A change to the program
moves these figures in full; a change in the host's speed moves the probe
and the work together and mostly cancels out.

Two probes exist: an interpreted one for everything the interpreter does,
and one of sqlite opens and listening sockets for the serving set-up,
which is mostly C and system calls that the first does not track.
"""

from __future__ import annotations

import bisect
import socket
import sqlite3
import statistics
import time
from array import array
from pathlib import Path
from typing import Callable

#: :func:`probe_work`'s time on the reference host.
REFERENCE_PROBE_S = 0.002
#: :func:`open_probe_work`'s time on the reference host.
REFERENCE_OPEN_PROBE_S = 0.0006

_PROBE_SCHEMA = """
CREATE TABLE items (id TEXT PRIMARY KEY, body TEXT NOT NULL, state TEXT);
CREATE INDEX items_state ON items (state);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER);
"""

#: A 100 000-bit integer with a hole, for the probe's big-integer half.
_WIDE = (1 << 100_000) - 1 - (1 << 5_000)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1-99), interpolating between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def chunked_percentile(
    values: list[float], q: int, chunks: int = 8, min_chunk: int = 1000
) -> float:
    """Median over consecutive chunks of the chunk's ``q``-th percentile.

    A burst on the host lands in one chunk and moves this figure far less
    than it moves one percentile over the whole run.  Chunks keep at least
    ``min_chunk`` samples so each tail percentile has samples beyond it."""
    count = max(1, min(chunks, len(values) // min_chunk))
    size = len(values) // count
    return statistics.median(
        percentile(values[i * size : (i + 1) * size], q) for i in range(count)
    )


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """Percent more time per unit of work with tracing on."""
    return (untraced_rate / traced_rate - 1) * 100


def probe_work() -> int:
    """The fixed probe: an interpreted arithmetic loop, then shifts of a
    100 000-bit integer, about 1 ms each on a 2-vCPU cloud host.  The two
    halves stand for the interpreter-bound serving path and the
    big-integer scans of the query engine."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    wide = _WIDE
    for _ in range(200):
        wide = (wide >> 1) ^ _WIDE
        total += wide & 0xFF
    return total


def open_probe_work() -> None:
    """The set-up probe: three times, open an in-memory sqlite database,
    create a small schema, write a row, close it, and bind a listening
    socket on the loopback interface."""
    for _ in range(3):
        db = sqlite3.connect(":memory:")
        db.executescript(_PROBE_SCHEMA)
        db.execute("INSERT INTO items VALUES (?, ?, ?)", ("a", "{}", "open"))
        db.commit()
        db.close()
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()


class HostProbes:
    """Runs of one probe taken between units of work, in time order.

    The stretch between two consecutive probes is a *gap*; an interval of
    work inside one gap is scaled by the mean of the two probes bounding
    it."""

    def __init__(
        self,
        work: Callable[[], object] = probe_work,
        reference_s: float = REFERENCE_PROBE_S,
    ) -> None:
        self.work = work
        self.reference_s = reference_s
        self.starts = array("d")
        self.ends = array("d")

    def take(self) -> None:
        began = time.perf_counter()
        self.work()
        self.starts.append(began)
        self.ends.append(time.perf_counter())

    def _scale(self, gap: int) -> float:
        probe_s = (
            self.ends[gap] - self.starts[gap] + self.ends[gap + 1] - self.starts[gap + 1]
        ) / 2
        return self.reference_s / probe_s

    def scaled(self, began: float, ended: float) -> float | None:
        """Seconds from ``began`` to ``ended`` on the reference host, or
        ``None`` if the interval is not inside one gap (a probe ran during
        it, or it lies outside the probes)."""
        gap = bisect.bisect_right(self.starts, began) - 1
        if gap < 0 or gap + 1 >= len(self.starts):
            return None
        if began < self.ends[gap] or ended > self.starts[gap + 1]:
            return None
        return (ended - began) * self._scale(gap)

    def scaled_total(self) -> float:
        """Every gap's length on the reference host: the time from the first
        probe to the last, without the probes themselves."""
        return sum(
            (self.starts[gap + 1] - self.ends[gap]) * self._scale(gap)
            for gap in range(len(self.starts) - 1)
        )

    def raw_total(self) -> float:
        """Every gap's length as measured."""
        return sum(
            self.starts[gap + 1] - self.ends[gap]
            for gap in range(len(self.starts) - 1)
        )

    def probe_s(self) -> float:
        """Time spent running probes."""
        return sum(end - start for start, end in zip(self.starts, self.ends))

    def median_ms(self) -> float:
        return statistics.median(
            (end - start) * 1e3 for start, end in zip(self.starts, self.ends)
        )

    def factor(self) -> float:
        """One scale for the whole run, from the median probe: for figures
        that are not timed interval by interval (the per-layer table)."""
        return self.reference_s * 1e3 / self.median_ms()


def host_speed_ms(repeats: int = 5) -> float:
    """Median time of the probe: a figure for how fast the host runs
    Python right now, independent of the program under test."""
    probes = HostProbes()
    for _ in range(repeats):
        probes.take()
    return probes.median_ms()


def time_wait_sockets() -> int | None:
    """TCP sockets in TIME_WAIT, from the kernel's socket summary."""
    try:
        text = Path("/proc/net/sockstat").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("TCP:"):
            fields = line.split()
            if "tw" in fields:
                return int(fields[fields.index("tw") + 1])
    return None
