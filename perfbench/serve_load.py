"""The served-round workloads: ``serve-steady`` and ``serve-resume``.

A :class:`~repro.server.RoundServer` over a fresh
:class:`~repro.server.SessionStore` and this file's own clients share one
asyncio event loop in one process.  Load is a closed loop: two persistent
connections (one per core on a single-core host), zero think time, each
running dialogues back to back.  The clients take dialogues from one
seeded list in order and stop only at the end of a whole pass over it (the
pass boundary nearest the run's length), so the rounds and questions per
dialogue repeat exactly for a seed while the timings vary.

Every tenth of a second the loop stops serving for one host-speed probe
(:class:`measure.HostProbes`, about 2 ms).  Each round is scaled by the two
probes around it, rounds during which a probe ran are left out of the
latencies, and the run's length is the sum of the scaled gaps between
probes.

The store is ``SessionStore(":memory:")``: the real store class and its
SQL, without a disk under it.  The benchmark may write only inside its
checkout, and a store file there sits on whatever disk the checkout is on;
on a shared 2-vCPU host, fsync stalls at WAL checkpoints moved serve-steady
throughput by 20% from run to run and its round p99 from 3 to 12 ms.

``serve-resume`` parks the dialogue after every answered round (``quit``)
and resumes it (``reconnect``) on the same socket, so every round also
rebuilds the session from the store.  Neither workload opens more than one
connection per client; opening a socket per round fills the host's
TIME_WAIT table and slows every later run.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from statistics import median

from repro.core.generators import random_qhorn1, random_role_preserving
from repro.core.normalize import equivalent
from repro.core.query import QhornQuery
from repro.core.serialize import query_from_dict, query_to_dict
from repro.interactive.session import LearningSession
from repro.oracle import CountingOracle, QueryOracle
from repro.protocol.wire import payload_from_dict
from repro.server import LEARNERS, RoundServer, SessionStore

from measure import (
    REFERENCE_OPEN_PROBE_S,
    HostProbes,
    chunked_percentile,
    open_probe_work,
    overhead_pct,
    percentile,
)
from spans import SpanRecorder

#: Dialogue mix: qhorn-1 intents over 8 variables alternate with
#: role-preserving intents over 6.
MIX = (("qhorn1", 8, random_qhorn1), ("role-preserving", 6, random_role_preserving))
#: Dialogues per pass.  Rounds per dialogue vary widely (3 to 66), so
#: a pass needs about a thousand dialogues for its mean to vary by only
#: about 2% from seed to seed.
PASS_SIZE = 1024
MAX_CLIENTS = 2
#: Fresh store-open plus server-start cycles whose median is ``setup_s``.
SETUP_CYCLES = 25
#: Seconds between host-speed probes while the clients run.
PROBE_EVERY = 0.1


def clients() -> int:
    """Persistent client connections: two, or one per core if fewer."""
    return max(1, min(MAX_CLIENTS, os.cpu_count() or 1))


def theorem_31_bound(n: int) -> float:
    """Theorem 3.1's question bound for qhorn-1, at the constants the
    learning tests pin: ``12 n lg n + 12``."""
    return 12 * n * math.log2(max(n, 2)) + 12


def role_preserving_bound(n: int, k: int) -> float:
    """The role-preserving learner's bound for a size-``k`` query, at the
    constants the learning tests pin: ``4 n^3 + 6 k n lg n + 40``."""
    return 4 * n**3 + 6 * max(k, 1) * n * math.log2(max(n, 2)) + 40


@dataclass(frozen=True)
class Dialogue:
    index: int
    learner: str
    intent: QhornQuery

    def bound(self) -> float:
        if self.learner == "qhorn1":
            return theorem_31_bound(self.intent.n)
        return role_preserving_bound(self.intent.n, self.intent.size)


def make_dialogues(seed: int, count: int) -> list[Dialogue]:
    rng = random.Random(seed)
    out = []
    for index in range(count):
        learner, n, generate = MIX[index % len(MIX)]
        out.append(Dialogue(index, learner, generate(n, rng)))
    return out


@dataclass
class Served:
    """One dialogue as the client saw it."""

    dialogue: Dialogue
    finished: dict | None = None
    error: str | None = None


@dataclass
class RunLog:
    """What the clients saw, shared by all of them.  The clients run on
    one event loop, so samples are appended in completion order."""

    clients: int
    served: list[Served] = field(default_factory=list)
    #: ``(session id, sent, received)`` from sending answers to receiving
    #: the next round or result.
    rounds: list[tuple[str, float, float]] = field(default_factory=list)
    #: ``(sent, received)`` from sending ``reconnect`` to receiving the
    #: re-sent round.
    resumes: list[tuple[float, float]] = field(default_factory=list)
    connections: int = 0


class Cursor:
    """Hands out dialogue indices in list order, wrapping around, and
    stops at the pass boundary nearest the deadline, after at least one
    pass."""

    def __init__(self, size: int, began: float, seconds: float) -> None:
        self.size = size
        self.began = began
        self.deadline = began + seconds
        self.issued = 0

    def take(self) -> int | None:
        if self.issued and self.issued % self.size == 0:
            now = time.perf_counter()
            pass_s = (now - self.began) / (self.issued // self.size)
            if now + pass_s / 2 >= self.deadline:
                return None
        self.issued += 1
        return (self.issued - 1) % self.size


class Connection:
    """One persistent newline-JSON connection to the server."""

    def __init__(self, reader, writer, recorder: SpanRecorder | None) -> None:
        self.reader = reader
        self.writer = writer
        self.recorder = recorder

    async def ask(self, message: dict, key: str | None) -> tuple[dict, float, float]:
        """Send one message, wait for one reply; returns the reply with the
        send and receive times."""
        recorder = self.recorder
        span = recorder.enter("client.encode", key) if recorder else -1
        sent = time.perf_counter()
        self.writer.write((json.dumps(message) + "\n").encode())
        if recorder:
            recorder.exit(span)
        await self.writer.drain()
        line = await self.reader.readline()
        received = time.perf_counter()
        if not line:
            raise ConnectionError("server closed the connection")
        span = recorder.enter("client.decode", key) if recorder else -1
        reply = json.loads(line)
        if recorder:
            recorder.exit(span)
        return reply, sent, received

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _run_dialogue(
    conn: Connection, dialogue: Dialogue, resume: bool, log: RunLog
) -> Served:
    served = Served(dialogue)
    oracle = QueryOracle(dialogue.intent)
    recorder = conn.recorder
    reply, _, _ = await conn.ask(
        {"type": "open", "n": dialogue.intent.n, "learner": dialogue.learner}, None
    )
    session_id = reply.get("session")
    while reply.get("type") == "round":
        span = recorder.enter("oracle.answer", session_id) if recorder else -1
        answers = oracle.ask_many(
            [payload_from_dict(q) for q in reply["questions"]]
        )
        if recorder:
            recorder.exit(span)
        reply, sent, received = await conn.ask(
            {"type": "answers", "session": session_id, "answers": answers},
            session_id,
        )
        log.rounds.append((session_id, sent, received))
        if resume and reply.get("type") == "round":
            parked, _, _ = await conn.ask(
                {"type": "quit", "session": session_id}, session_id
            )
            if parked.get("type") != "closed":
                served.error = f"quit answered with {parked}"
                return served
            resumed, sent, received = await conn.ask(
                {"type": "reconnect", "session": session_id}, session_id
            )
            log.resumes.append((sent, received))
            if resumed.get("type") != "round" or resumed.get("index") != reply.get(
                "index"
            ):
                served.error = f"reconnect re-sent {resumed}, parked at {reply}"
                return served
            reply = resumed
    if reply.get("type") == "finished":
        served.finished = reply
    else:
        served.error = f"dialogue ended with {reply}"
        if session_id is not None:
            await conn.ask({"type": "quit", "session": session_id}, session_id)
    return served


async def _client(
    port: int,
    dialogues: list[Dialogue],
    cursor: Cursor,
    resume: bool,
    log: RunLog,
    recorder: SpanRecorder | None,
) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    log.connections += 1
    conn = Connection(reader, writer, recorder)
    try:
        while (index := cursor.take()) is not None:
            log.served.append(
                await _run_dialogue(conn, dialogues[index], resume, log)
            )
    finally:
        await conn.close()


async def setup() -> tuple[list[float], SessionStore, RoundServer]:
    """``SETUP_CYCLES`` fresh store-open plus server-start cycles, each
    between two set-up probes and scaled by them; the last server stays up
    for the run."""
    times = []
    probes = HostProbes(open_probe_work, REFERENCE_OPEN_PROBE_S)
    probes.take()
    for cycle in range(SETUP_CYCLES):
        if cycle:
            await server.close()
            store.close()
        began = time.perf_counter()
        store = SessionStore(":memory:")
        server = RoundServer(store)
        await server.start()
        ended = time.perf_counter()
        probes.take()
        times.append(probes.scaled(began, ended))
    return times, store, server


@dataclass
class PhaseResult:
    workload: str
    setup_s: list[float]
    log: RunLog
    probes: HostProbes
    server_stats: dict[str, int]
    store_bytes: int
    stored_sessions: int
    cpu_s: float

    @property
    def served(self) -> list[Served]:
        return self.log.served

    @property
    def elapsed_s(self) -> float:
        """The run's length on the reference host."""
        return self.probes.scaled_total()

    def finished(self) -> list[dict]:
        return [s.finished for s in self.served if s.finished is not None]

    def round_s(self) -> list[float]:
        """Round latencies on the reference host."""
        return self._scaled((sent, received) for _, sent, received in self.log.rounds)

    def resume_s(self) -> list[float]:
        """Resume latencies on the reference host."""
        return self._scaled(self.log.resumes)

    def _scaled(self, intervals) -> list[float]:
        scaled = (self.probes.scaled(sent, received) for sent, received in intervals)
        return [seconds for seconds in scaled if seconds is not None]


async def _serve_probed(
    port: int,
    dialogues: list[Dialogue],
    seconds: float,
    resume: bool,
    log: RunLog,
    recorder: SpanRecorder | None,
) -> HostProbes:
    """Run the clients to the end of the run, probing the host before,
    every ``PROBE_EVERY`` seconds during, and right after."""
    probes = HostProbes()
    probes.take()
    cursor = Cursor(len(dialogues), time.perf_counter(), seconds)
    clients_done = asyncio.gather(
        *(
            _client(port, dialogues, cursor, resume, log, recorder)
            for _ in range(log.clients)
        )
    )
    finished = False
    while not finished:
        done, _ = await asyncio.wait({clients_done}, timeout=PROBE_EVERY)
        probes.take()
        finished = bool(done)
    await clients_done
    return probes


async def _phase(
    workload: str,
    dialogues: list[Dialogue],
    seconds: float,
    recorder: SpanRecorder | None,
) -> PhaseResult:
    setup_times, store, server = await setup()
    log = RunLog(clients())
    cpu_began = time.process_time()
    try:
        probes = await _serve_probed(
            server.port,
            dialogues,
            seconds,
            workload == "serve-resume",
            log,
            recorder,
        )
        cpu = time.process_time() - cpu_began
        stats = server.stats()
        (pages,) = store.connection.execute("PRAGMA page_count").fetchone()
        (page_size,) = store.connection.execute("PRAGMA page_size").fetchone()
        stored = len(store)
    finally:
        await server.close()
        store.close()
    return PhaseResult(
        workload, setup_times, log, probes, stats, pages * page_size, stored, cpu
    )


def run_phase(
    workload: str,
    dialogues: list[Dialogue],
    seconds: float,
    recorder: SpanRecorder | None = None,
) -> PhaseResult:
    return asyncio.run(_phase(workload, dialogues, seconds, recorder))


# ----------------------------------------------------------------------
# Correctness, checked after the timed run
# ----------------------------------------------------------------------
@dataclass
class Reference:
    query: dict
    rounds: int
    questions: int
    problem: str | None


def reference(dialogue: Dialogue) -> Reference:
    """The synchronous in-process run of the same intent, checked against
    the intent and the paper's bound."""
    counting = CountingOracle(QueryOracle(dialogue.intent))
    learner_cls = LEARNERS[dialogue.learner]
    result = LearningSession(lambda oracle: learner_cls(oracle), counting).run()
    problem = None
    if not equivalent(result.query, dialogue.intent):
        problem = (
            f"learned {result.query.shorthand()!r}, "
            f"intended {dialogue.intent.shorthand()!r}"
        )
    elif counting.stats.questions > dialogue.bound():
        problem = (
            f"{counting.stats.questions} questions exceed the bound "
            f"{dialogue.bound():.1f}"
        )
    return Reference(
        query_to_dict(result.query),
        counting.stats.rounds,
        counting.stats.questions,
        problem,
    )


def check(phase: PhaseResult) -> tuple[list[str], int]:
    """Every way the phase's outputs are wrong, one line each, and the
    failure count: dialogues that failed a check, plus one if a run-level
    check failed."""
    problems: list[str] = []
    references: dict[int, Reference] = {}
    dialogue_failures = 0
    for served in phase.served:
        dialogue = served.dialogue
        if dialogue.index not in references:
            references[dialogue.index] = reference(dialogue)
        ref = references[dialogue.index]
        problem = served.error or ref.problem
        finished = served.finished
        if problem is None and finished is not None:
            if finished["query_json"] != ref.query and not equivalent(
                query_from_dict(finished["query_json"]), dialogue.intent
            ):
                problem = f"served dialogue learned {finished['query']!r}"
            elif (finished["rounds"], finished["questions"]) != (
                ref.rounds,
                ref.questions,
            ):
                problem = (
                    f"served {finished['rounds']} rounds/"
                    f"{finished['questions']} questions, synchronous run "
                    f"{ref.rounds}/{ref.questions}"
                )
        if problem is not None:
            dialogue_failures += 1
            problems.append(f"dialogue {dialogue.index}: {problem}")
    finished = phase.finished()
    stats = phase.server_stats
    expected_resumes = (
        sum(f["rounds"] - 1 for f in finished)
        if phase.workload == "serve-resume"
        else 0
    )
    if stats["sessions_resumed"] != expected_resumes:
        problems.append(
            f"server resumed {stats['sessions_resumed']} sessions, "
            f"expected {expected_resumes}"
        )
    for counter in ("wire_errors", "claims_rejected"):
        if stats[counter]:
            problems.append(f"server counted {stats[counter]} {counter}")
    log = phase.log
    if log.connections > log.clients:
        problems.append(
            f"{log.connections} connections opened by {log.clients} clients"
        )
    run_failures = len(problems) - dialogue_failures
    return problems, dialogue_failures + (1 if run_failures else 0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(
    phase: PhaseResult, failed: int
) -> tuple[dict[str, float], dict[str, tuple]]:
    """The end-to-end metrics of ``BENCHMARK.json``, and the same figures
    under the names a reader of the serving tier uses: ``name -> (value,
    unit, note)``, each percentile noted with its sample count."""
    finished = phase.finished()
    rounds, resumes = phase.round_s(), phase.resume_s()
    sessions = len(finished)
    attempted = len(phase.served)
    probes = phase.probes
    named: dict[str, tuple] = {
        "setup_s": (
            median(phase.setup_s),
            "s",
            f"median of {len(phase.setup_s)} store-open + server-start cycles",
        ),
        "sessions_per_s": (
            sessions / phase.elapsed_s,
            "1/s",
            f"{sessions} dialogues in {phase.elapsed_s:.1f} s "
            f"({sessions / probes.raw_total():.1f}/s as measured)",
        ),
        "round_p50_ms": (percentile(rounds, 50) * 1e3, "ms", f"n={len(rounds)}"),
        "round_p90_ms": (
            chunked_percentile(rounds, 90) * 1e3,
            "ms",
            f"n={len(rounds)}, median over chunks",
        ),
        "round_p99_ms": (
            chunked_percentile(rounds, 99) * 1e3,
            "ms",
            f"n={len(rounds)}, median over chunks",
        ),
        "rounds_per_session": (
            sum(f["rounds"] for f in finished) / sessions,
            "count",
            "exact for a seed",
        ),
        "questions_per_session": (
            sum(f["questions"] for f in finished) / sessions,
            "count",
            "exact for a seed",
        ),
        "failed_ratio": (
            failed / max(1, attempted),
            "ratio",
            f"{failed} of {attempted} dialogues",
        ),
        "connections_opened": (
            phase.log.connections,
            "count",
            f"{phase.log.clients} clients",
        ),
    }
    latency = "round"
    if phase.workload == "serve-resume":
        latency = "resume"
        named["resume_p50_ms"] = (
            percentile(resumes, 50) * 1e3,
            "ms",
            f"n={len(resumes)}",
        )
        named["resume_p90_ms"] = (
            chunked_percentile(resumes, 90) * 1e3,
            "ms",
            f"n={len(resumes)}, median over chunks",
        )
        named["resume_p99_ms"] = (
            chunked_percentile(resumes, 99) * 1e3,
            "ms",
            f"n={len(resumes)}, median over chunks",
        )
    metrics = {
        "setup_s": named["setup_s"][0],
        "throughput_per_s": named["sessions_per_s"][0],
        "latency_p50_ms": named[f"{latency}_p50_ms"][0],
        "latency_p90_ms": named[f"{latency}_p90_ms"][0],
        "rounds_per_op": named["rounds_per_session"][0],
        "items_per_op": named["questions_per_session"][0],
    }
    return metrics, named


def per_layer(
    phase: PhaseResult, recorder: SpanRecorder, untraced: PhaseResult
) -> dict[str, float]:
    """Per-layer figures of a traced phase."""
    recorder.assign_keys()
    layers = recorder.layer_times()
    finished = phase.finished()
    total_rounds = sum(f["rounds"] for f in finished)

    # Round latency minus the round's own top-level server spans.
    server_names = {
        "session.start",
        "session.feed",
        "session.snapshot",
        "session.resume",
        "store.save",
        "store.load",
        "store.claim",
        "store.release",
        "protocol.decode",
        "protocol.encode",
    }
    own: dict[str, list[tuple[float, float]]] = {}
    for index in recorder.top_level():
        key = recorder.keys[index]
        if key is not None and recorder.names[index] in server_names:
            own.setdefault(key, []).append(
                (recorder.starts[index], recorder.ends[index])
            )
    waits = []
    for session_id, sent, received in phase.log.rounds:
        if phase.probes.scaled(sent, received) is None:
            continue  # a probe ran during this round
        inside = sum(
            end - start
            for start, end in own.get(session_id, ())
            if sent <= start and end <= received
        )
        waits.append(received - sent - inside)
    residual_s = phase.cpu_s - recorder.top_level_s() - phase.probes.probe_s()
    replay_feeds = layers["session.feed@replay"].calls
    resumes = layers["session.resume"].calls
    gc_pause_ms, gen2 = recorder.gc_summary()
    by_learner: dict[str, list[int]] = {}
    for served in phase.served:
        if served.finished is not None:
            totals = by_learner.setdefault(served.dialogue.learner, [0, 0])
            totals[0] += served.finished["questions"]
            totals[1] += served.finished["rounds"]
    stats = phase.server_stats
    # Times on the reference host, by the run's median probe.
    scale = phase.probes.factor()
    return {
        "server.residual_us_per_round": residual_s / total_rounds * 1e6 * scale,
        "server.wait_us_per_round": (
            sum(waits) / len(waits) * 1e6 * scale if waits else 0.0
        ),
        "server.sessions_resumed": stats["sessions_resumed"],
        "server.wire_errors": stats["wire_errors"],
        "server.claims_rejected": stats["claims_rejected"],
        "protocol.encode_us": layers["protocol.encode"].mean_self_us() * scale,
        "protocol.decode_us": layers["protocol.decode"].mean_self_us() * scale,
        "session.start_us": layers["session.start"].mean_self_us() * scale,
        "session.feed_us": layers["session.feed"].mean_self_us() * scale,
        "session.snapshot_us": layers["session.snapshot"].mean_self_us() * scale,
        "session.resume_us": layers["session.resume"].mean_total_us() * scale,
        "session.replayed_rounds_per_resume": (
            replay_feeds / resumes if resumes else 0.0
        ),
        "learning.questions_per_round.qhorn1": _ratio(by_learner.get("qhorn1")),
        "learning.questions_per_round.role-preserving": _ratio(
            by_learner.get("role-preserving")
        ),
        "store.save_us": layers["store.save"].mean_self_us() * scale,
        "store.bytes_per_save": (
            sum(recorder.save_bytes) / len(recorder.save_bytes)
            if recorder.save_bytes
            else 0.0
        ),
        "store.saves_per_round": layers["store.save"].calls / total_rounds,
        "store.load_us": layers["store.load"].mean_self_us() * scale,
        "store.claim_us": layers["store.claim"].mean_self_us() * scale,
        "store.release_us": layers["store.release"].mean_self_us() * scale,
        "store.file_bytes_per_session": phase.store_bytes / max(1, phase.stored_sessions),
        "oracle.answer_us": layers["oracle.answer"].mean_self_us() * scale,
        "core.compile_us": layers["core.compile"].mean_self_us() * scale,
        "gc.pause_ms": gc_pause_ms * scale,
        "gc.gen2_collections": gen2,
        "client.connections_opened": phase.log.connections,
        "trace.overhead_pct": overhead_pct(
            len(untraced.finished()) / untraced.elapsed_s,
            len(finished) / phase.elapsed_s,
        ),
    }


def _ratio(totals: list[int] | None) -> float:
    return totals[0] / totals[1] if totals and totals[1] else 0.0
