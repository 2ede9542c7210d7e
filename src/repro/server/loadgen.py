"""E25 load generator: N simulated users answering rounds with think-time.

Each simulated user opens one TCP connection to a
:class:`~repro.server.core.RoundServer`, starts (or reconnects) a
dialogue, and answers every round from a ground-truth
:class:`~repro.oracle.QueryOracle` over their intended query after an
optional think-time sleep — the load shape the paper's interaction model
implies (many humans, each slow, each cheap per round).  The generator
records per-round latency (answers sent → next round received) and the
full wire transcript, so callers can assert bit-identical transcripts
against the synchronous in-process path.

With ``hop_every=k`` a user parks the dialogue (quit) after every ``k``
answered rounds, drops the connection, and reconnects on a fresh one,
which drives the server's park-and-resume path on every hop.

Run standalone against a live server (the CI smoke does)::

    python -m repro.server.loadgen --port 40001 --users 8 --n 4 \
        --hop-every 1
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


def _check_hop_every(hop_every: int | None) -> None:
    """A hop after fewer than one answered round would hop forever."""
    if hop_every is not None and hop_every < 1:
        raise ValueError(f"hop_every must be 1 or more, got {hop_every}")


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
    transcript.  With ``hop_every=k`` (1 or more, else ``ValueError``)
    the user parks (quit) after every ``k`` answered rounds and
    reconnects on a brand-new connection.  The quit's ``closed`` reply
    is awaited before reconnecting, so the reconnect reaches the server
    after the quit.
    ``think_time`` sleeps before each answer batch, jittered ±50% when
    ``rng`` is given.
    """
    _check_hop_every(hop_every)
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
                return result
            if kind != "round":
                raise AssertionError(f"unexpected server message: {message}")
            result.session_id = message["session"]
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
                # Park, then resume: quit (awaiting the "closed" reply,
                # so the reconnect comes after it), drop the connection,
                # reconnect fresh.
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
    _check_hop_every(hop_every)
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

    # Zero users would report a clean run over no dialogues; a hop
    # every zero rounds never answers one.
    from repro.cli import _positive

    parser = argparse.ArgumentParser(
        prog="python -m repro.server.loadgen",
        description="simulated-user load generator for `repro serve`",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--users",
        type=_positive,
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
        type=_positive,
        default=None,
        metavar="K",
        help="park (quit) and reconnect on a fresh connection after "
        "every K answered rounds",
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
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
