"""E25 load generator: N simulated users answering rounds with think-time.

Each simulated user opens one TCP connection to a
:class:`~repro.server.core.RoundServer` (or a whole
:class:`~repro.server.multiproc.ServerFleet`), starts (or reconnects) a
dialogue, and answers every round from a ground-truth
:class:`~repro.oracle.QueryOracle` over their intended query after an
optional think-time sleep — the load shape the paper's interaction model
implies (many humans, each slow, each cheap per round).  The generator
records per-round latency (answers sent → next round received) and the
full wire transcript, so callers can assert bit-identical transcripts
against the synchronous in-process path.

Two fleet-era load shapes (§2h):

* ``hop_every=k`` parks the dialogue (quit) after every ``k`` answered
  rounds, drops the connection, and reconnects on a fresh one — under a
  multi-process fleet each reconnect is kernel-balanced onto whichever
  worker accepts, so dialogues deliberately hop workers and exercise the
  store's ownership handoff.  ``UserResult.workers`` records every
  worker id that served the user.
* :func:`run_load_multiprocess` fans the users over C client processes,
  so the load generator itself stops being the single-core bottleneck
  when measuring a fleet (E25c).

Run standalone against a live server (the CI smoke does)::

    python -m repro.server.loadgen --port 40001 --users 8 --n 4 \
        --hop-every 1 --expect-workers 2
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.generators import random_qhorn1
from repro.core.query import QhornQuery
from repro.oracle import QueryOracle
from repro.protocol.wire import payload_from_dict

__all__ = [
    "UserResult",
    "LoadReport",
    "simulate_user",
    "run_load",
    "run_load_multiprocess",
    "random_intents",
    "load_scenarios",
]


@dataclass
class UserResult:
    """One simulated user's finished (or parked) dialogue."""

    session_id: str
    intent: QhornQuery
    learned: str | None = None
    questions: int = 0
    rounds: int = 0
    #: Wire transcript: (questions, answers) per answered round.
    transcript: list = field(default_factory=list)
    #: Seconds from sending answers to receiving the next message.
    round_latencies: list = field(default_factory=list)
    metering: dict = field(default_factory=dict)
    #: Every worker id that served this user (fleet mode).
    workers: set = field(default_factory=set)
    #: Park-and-reconnect hops this user performed.
    hops: int = 0

    @property
    def finished(self) -> bool:
        return self.learned is not None


@dataclass
class LoadReport:
    """Aggregate of one load run."""

    users: list
    elapsed_s: float

    @property
    def sessions_per_s(self) -> float:
        return len(self.users) / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def total_rounds(self) -> int:
        return sum(u.rounds for u in self.users)

    @property
    def total_questions(self) -> int:
        return sum(u.questions for u in self.users)

    @property
    def total_hops(self) -> int:
        return sum(u.hops for u in self.users)

    @property
    def workers_seen(self) -> set:
        return set().union(*(u.workers for u in self.users), set())

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile round latency in seconds (0 <= q <= 1)."""
        latencies = sorted(
            latency for u in self.users for latency in u.round_latencies
        )
        if not latencies:
            return 0.0
        index = min(int(q * len(latencies)), len(latencies) - 1)
        return latencies[index]

    def to_dict(self) -> dict:
        return {
            "users": len(self.users),
            "finished": sum(1 for u in self.users if u.finished),
            "elapsed_s": round(self.elapsed_s, 4),
            "sessions_per_s": round(self.sessions_per_s, 2),
            "rounds": self.total_rounds,
            "questions": self.total_questions,
            "hops": self.total_hops,
            "workers": sorted(self.workers_seen),
            "p50_round_ms": round(self.latency_percentile(0.50) * 1000, 3),
            "p99_round_ms": round(self.latency_percentile(0.99) * 1000, 3),
        }


async def _read_message(reader) -> dict:
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


async def _open(host: str, port: int, hello: dict):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write((json.dumps(hello) + "\n").encode())
    await writer.drain()
    return reader, writer


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def simulate_user(
    host: str,
    port: int,
    intent: QhornQuery,
    learner: str = "qhorn1",
    think_time: float = 0.0,
    rng: random.Random | None = None,
    session_id: str | None = None,
    stop_after_rounds: int | None = None,
    hop_every: int | None = None,
) -> UserResult:
    """Drive one dialogue to completion (or park it after
    ``stop_after_rounds`` answered rounds, for restart experiments).

    With ``session_id`` the user reconnects to a parked dialogue instead
    of opening a new one — the resumed rounds continue the same
    transcript.  With ``hop_every=k`` the user parks (quit) after every
    ``k`` answered rounds and reconnects on a brand-new connection —
    against a fleet, that connection lands on whichever worker the
    kernel picks, so the dialogue hops workers.
    The quit's ``closed`` reply is awaited before reconnecting: the park
    releases the session's ownership claim, so the next worker's rebuild
    is guaranteed to find it released.  ``think_time`` sleeps before
    each answer batch, jittered ±50% when ``rng`` is given.
    """
    truth = QueryOracle(intent)
    result = UserResult(session_id=session_id or "", intent=intent)
    if session_id is None:
        hello: dict = {"type": "open", "n": intent.n, "learner": learner}
    else:
        hello = {"type": "reconnect", "session": session_id}
    reader, writer = await _open(host, port, hello)
    answered = 0
    answered_since_hop = 0
    try:
        while True:
            sent_at = time.perf_counter()
            message = await _read_message(reader)
            latency = time.perf_counter() - sent_at
            kind = message.get("type")
            if kind == "finished":
                result.learned = message["query"]
                result.questions = message["questions"]
                result.rounds = message["rounds"]
                result.metering = message.get("metering", {})
                if "worker" in message:
                    result.workers.add(message["worker"])
                return result
            if kind != "round":
                raise AssertionError(f"unexpected server message: {message}")
            result.session_id = message["session"]
            if "worker" in message:
                result.workers.add(message["worker"])
            if stop_after_rounds is not None and answered >= stop_after_rounds:
                writer.write(
                    json.dumps(
                        {"type": "quit", "session": result.session_id}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                result.rounds = message["index"]
                return result
            if hop_every is not None and answered_since_hop >= hop_every:
                # Park here, resume over there: quit (awaiting the
                # "closed" reply, which guarantees the claim release
                # happened), drop the connection, reconnect fresh.
                writer.write(
                    json.dumps(
                        {"type": "quit", "session": result.session_id}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                closed = await _read_message(reader)
                assert closed.get("type") == "closed", closed
                await _close(writer)
                reader, writer = await _open(
                    host,
                    port,
                    {"type": "reconnect", "session": result.session_id},
                )
                result.hops += 1
                answered_since_hop = 0
                continue
            result.round_latencies.append(latency)
            questions = [
                payload_from_dict(d) for d in message["questions"]
            ]
            if think_time:
                delay = think_time
                if rng is not None:
                    delay *= 0.5 + rng.random()
                await asyncio.sleep(delay)
            answers = truth.ask_many(questions)
            result.transcript.append((questions, answers))
            answered += 1
            answered_since_hop += 1
            writer.write(
                (
                    json.dumps(
                        {
                            "type": "answers",
                            "session": result.session_id,
                            "answers": answers,
                        }
                    )
                    + "\n"
                ).encode()
            )
            await writer.drain()
    finally:
        await _close(writer)


async def run_load(
    host: str,
    port: int,
    intents: Sequence[QhornQuery],
    learner: str = "qhorn1",
    think_time: float = 0.0,
    seed: int = 2013,
    stop_after_rounds: int | None = None,
    session_ids: Sequence[str] | None = None,
    hop_every: int | None = None,
) -> LoadReport:
    """Run one simulated user per intent, all concurrent on this loop."""
    rng = random.Random(seed)
    rngs = [random.Random(rng.random()) for _ in intents]
    started = time.perf_counter()
    users = await asyncio.gather(
        *(
            simulate_user(
                host,
                port,
                intent,
                learner=learner,
                think_time=think_time,
                rng=user_rng,
                session_id=(
                    None if session_ids is None else session_ids[index]
                ),
                stop_after_rounds=stop_after_rounds,
                hop_every=hop_every,
            )
            for index, (intent, user_rng) in enumerate(zip(intents, rngs))
        )
    )
    return LoadReport(
        users=list(users), elapsed_s=time.perf_counter() - started
    )


def _load_slice(payload: tuple) -> list[UserResult]:
    """One client process's share of the users (module-level: picklable
    under any multiprocessing start method)."""
    host, port, intents, learner, think_time, seed, hop_every = payload
    report = asyncio.run(
        run_load(
            host,
            port,
            intents,
            learner=learner,
            think_time=think_time,
            seed=seed,
            hop_every=hop_every,
        )
    )
    return report.users


def run_load_multiprocess(
    host: str,
    port: int,
    intents: Sequence[QhornQuery],
    processes: int,
    learner: str = "qhorn1",
    think_time: float = 0.0,
    seed: int = 2013,
    hop_every: int | None = None,
) -> LoadReport:
    """Fan the users over ``processes`` client processes.

    A single asyncio loop answering thousands of rounds becomes the
    bottleneck before a multi-worker fleet does; C client processes keep
    the measurement about the server.  Elapsed time is the parent's wall
    clock around the whole fan-out, so ``sessions_per_s`` stays an
    end-to-end number.
    """
    import concurrent.futures
    import multiprocessing

    if processes <= 1:
        return asyncio.run(
            run_load(
                host,
                port,
                intents,
                learner=learner,
                think_time=think_time,
                seed=seed,
                hop_every=hop_every,
            )
        )
    context_name = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    slices: list[list[QhornQuery]] = [[] for _ in range(processes)]
    for index, intent in enumerate(intents):
        slices[index % processes].append(intent)
    payloads = [
        (host, port, chunk, learner, think_time, seed + rank, hop_every)
        for rank, chunk in enumerate(slices)
        if chunk
    ]
    started = time.perf_counter()
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=len(payloads),
        mp_context=multiprocessing.get_context(context_name),
    ) as pool:
        users = [
            user
            for chunk in pool.map(_load_slice, payloads)
            for user in chunk
        ]
    return LoadReport(
        users=users, elapsed_s=time.perf_counter() - started
    )


def random_intents(
    count: int, n: int, seed: int = 2013
) -> list[QhornQuery]:
    """A seeded workload of ``count`` random qhorn-1 intents over ``n``."""
    rng = random.Random(seed)
    return [random_qhorn1(n, rng) for _ in range(count)]


def load_scenarios(path: str) -> list[QhornQuery]:
    """Intents from a `repro enumerate` JSONL corpus (``--scenario``).

    Every provably-distinct enumerated query becomes one dialogue's
    intent, so a load run covers the *whole* bounded query space instead
    of one random-generator distribution.  Accepted lines: the corpus's
    ``{"kind": "query", "query": {...}}`` records (other kinds — stores,
    instances, the summary — are skipped), or bare
    ``{"query": {...}}`` / ``{"intent": "shorthand", "n": N}`` objects
    for hand-written scenario files.
    """
    from repro.core.parser import parse_query
    from repro.core.serialize import query_from_dict

    intents: list[QhornQuery] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind is not None and kind != "query":
                continue
            if "query" in record:
                intents.append(query_from_dict(record["query"]))
            elif "intent" in record:
                intents.append(
                    parse_query(record["intent"], n=record.get("n"))
                )
            elif kind == "query":
                raise ValueError(
                    f"{path}:{lineno}: query record without a 'query' dict"
                )
    if not intents:
        raise ValueError(f"{path}: no scenario intents found")
    return intents


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.server.loadgen",
        description="simulated-user load generator for `repro serve`",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="simulated users (default: 8, or one per scenario intent "
        "with --scenario; more users cycle the scenario list)",
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--learner", default="qhorn1")
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="replay intents from a `repro enumerate` JSONL corpus "
        "(one dialogue per enumerated query) instead of the random "
        "generator; --n and --seed stop shaping the workload",
    )
    parser.add_argument("--think-time", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--hop-every",
        type=int,
        default=None,
        metavar="K",
        help="park (quit) and reconnect on a fresh connection after "
        "every K answered rounds — against a fleet, dialogues hop "
        "workers through the shared store",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="C",
        help="fan the users over C client processes (keeps the load "
        "generator off the critical path when measuring a fleet)",
    )
    parser.add_argument(
        "--expect-workers",
        type=int,
        default=None,
        metavar="W",
        help="fail unless at least W distinct worker ids served the "
        "load (asserts fleet balancing end-to-end)",
    )
    args = parser.parse_args(argv)

    from repro.core.normalize import canonicalize
    from repro.core.parser import parse_query

    if args.scenario is not None:
        scenarios = load_scenarios(args.scenario)
        count = args.users if args.users is not None else len(scenarios)
        intents = [scenarios[i % len(scenarios)] for i in range(count)]
    else:
        count = args.users if args.users is not None else 8
        intents = random_intents(count, args.n, seed=args.seed)
    if args.processes > 1:
        report = run_load_multiprocess(
            args.host,
            args.port,
            intents,
            processes=args.processes,
            learner=args.learner,
            think_time=args.think_time,
            seed=args.seed,
            hop_every=args.hop_every,
        )
    else:
        report = asyncio.run(
            run_load(
                args.host,
                args.port,
                intents,
                learner=args.learner,
                think_time=args.think_time,
                seed=args.seed,
                hop_every=args.hop_every,
            )
        )
    # Every dialogue must both finish and learn a query equivalent to
    # its own intent.
    wrong = [
        u
        for u in report.users
        if u.learned is None
        or canonicalize(parse_query(u.learned, n=u.intent.n))
        != canonicalize(u.intent)
    ]
    print(json.dumps(report.to_dict()))
    if wrong:
        for u in wrong:
            print(
                f"loadgen: session {u.session_id} learned {u.learned!r}, "
                f"intended {u.intent.shorthand()!r}"
            )
        return 1
    if (
        args.expect_workers is not None
        and len(report.workers_seen) < args.expect_workers
    ):
        print(
            f"loadgen: expected >= {args.expect_workers} distinct "
            f"workers, saw {sorted(report.workers_seen)}"
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
