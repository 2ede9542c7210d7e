"""Command-line interface: ``python -m repro <command>``.

Commands
--------
learn    simulate learning a target query by example
verify   run a verification set for a given query against an intent
revise   repair a close-but-wrong query against an intent
sql      compile a query to SQL over the generic two-table encoding
demo     the chocolate-store walkthrough
"""

from __future__ import annotations

import argparse
import random
import sqlite3
import sys

from repro.core.normalize import canonicalize
from repro.core.parser import ParseError, parse_query
from repro.core.serialize import query_to_json
from repro.core.tuples import MAX_VARIABLES
from repro.learning import (
    Qhorn1Learner,
    RolePreservingLearner,
    revise_query,
)
from repro.oracle import CachingOracle, CountingOracle, QueryOracle
from repro.verification import Verifier

__all__ = ["main", "build_parser"]

#: The serve and enumerate guide shown at the bottom of ``repro --help``.
COMMAND_GUIDE = """\
multi-session server (repro serve, DESIGN.md §2f):
  an asyncio TCP server multiplexing many concurrent dialogues in one
  event loop, speaking newline-delimited JSON framed with a session id:
  {"type":"open","n":N,"learner":"qhorn1"} starts a dialogue,
  {"type":"answers","session":ID,...} answers its pending round,
  {"type":"reconnect","session":ID} resumes a parked one.  Every round
  boundary persists the session's replay-log snapshot into the sqlite
  session store (--store FILE), so dialogues survive disconnects, idle
  eviction (--idle-timeout) and full server restarts; per-round metering
  counters ride along in each {"type":"finished"} summary.  The server
  prints one {"type":"listening","port":P} line on startup (--port 0
  picks an ephemeral port) and exits cleanly on SIGINT/SIGTERM.  One
  process serves a store; a second server on the same --store file
  rejects a dialogue the first holds in memory, live or parked, with a
  recoverable error until the first evicts it or shuts down, and
  resumes one whose server was killed (DESIGN.md §2h).

remote sessions (repro serve --stdio, DESIGN.md §2e):
  the same server and wire over one connection on stdin/stdout instead
  of a TCP port: no listening line, one {"type":"round",...} line out
  per question batch, one {"type":"answers",...} line in.  Closing stdin
  parks every open dialogue in --store and exits; a later
  `repro serve --stdio` on the same store continues one with
  {"type":"reconnect","session":ID} at the exact same round.  Pipe it to
  a subprocess, an ssh session or a websocket bridge to serve a remote
  user without a listening socket.

exhaustive conformance (repro enumerate, DESIGN.md §2j):
  where the property suites sample, `repro enumerate` proves by cases:
  it generates EVERY qhorn-1 query up to --max-props propositions
  (deduplicated up to semantic equivalence) and EVERY relation up to
  --max-objects objects.  Every learner (qhorn1/naive/role-preserving)
  must learn each query to an equivalent one, within the paper's
  question bound where one applies, and both evaluators (the in-process
  bitmask index and the SQL reference, dbapi) must reproduce the
  compiled reference labels on every (query, store) pair.
  Any disagreement is shrunk to a minimal
  witness and written to the JSONL corpus (--out FILE), which
  `python -m repro.server.loadgen --scenario FILE` replays as server
  load and --resume continues after an interruption.  Exit status 1 on
  any divergence.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="qhorn: learn and verify quantified Boolean queries "
        "by example (PODS 2013)",
        epilog=COMMAND_GUIDE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a target query by example")
    learn.add_argument("target", help="query shorthand, e.g. '∀x1 ∃x2x3'")
    learn.add_argument("--n", type=int, default=None)
    learn.add_argument(
        "--learner",
        choices=("qhorn1", "role-preserving"),
        default="role-preserving",
    )
    learn.add_argument("--json", action="store_true", help="emit JSON")

    verify = sub.add_parser(
        "verify", help="verify a given query against an intended one"
    )
    verify.add_argument("given")
    verify.add_argument("intended")
    verify.add_argument("--n", type=int, default=None)

    revise = sub.add_parser(
        "revise", help="revise a close query toward the intended one"
    )
    revise.add_argument("given")
    revise.add_argument("intended")
    revise.add_argument("--n", type=int, default=None)

    sql = sub.add_parser("sql", help="compile a query to SQL")
    sql.add_argument("query")
    sql.add_argument("--n", type=int, default=None)

    sub.add_parser("demo", help="run the chocolate-store walkthrough")

    serve = sub.add_parser(
        "serve",
        help="multi-session asyncio round server (see the serve guide at "
        "the bottom of `repro --help`)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_port,
        default=0,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one connection on stdin/stdout (pipes, sockets or a "
        "terminal) instead of a TCP port, until stdin closes (see the "
        "remote-sessions guide at the bottom of `repro --help`)",
    )
    serve.add_argument(
        "--store",
        metavar="FILE",
        default=":memory:",
        help="sqlite session store; file-backed stores let parked "
        "dialogues survive a server restart (default: in-memory)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict sessions idle this long from memory (their snapshots "
        "stay parked in the store; reconnect resumes them)",
    )

    enumerate_ = sub.add_parser(
        "enumerate",
        help="exhaustive bounded enumeration + differential conformance "
        "(see the enumerate guide at the bottom of `repro --help`)",
    )
    enumerate_.add_argument(
        "--max-props",
        type=_max_props,
        default=2,
        metavar="K",
        help="enumerate every query over up to K propositions "
        "(semantic dedup walks 2^(2^K) objects: K<=4; default 2)",
    )
    enumerate_.add_argument(
        "--max-objects",
        type=_non_negative,
        default=2,
        metavar="N",
        help="enumerate every relation with up to N objects (default 2; "
        "0 is the empty relation alone)",
    )
    enumerate_.add_argument(
        "--max-rows",
        type=_non_negative,
        default=2,
        metavar="R",
        help="rows (distinct tuples) per enumerated object (default 2)",
    )
    enumerate_.add_argument(
        "--max-exprs",
        type=_positive,
        default=None,
        metavar="E",
        help="expressions per enumerated query (default: n at each n)",
    )
    enumerate_.add_argument(
        "--vocab",
        choices=("bool", "mixed"),
        default="bool",
        help="store concretization: pure Boolean attributes, or mixed "
        "Boolean/category/numeric (exercises typed SQL rendering)",
    )
    enumerate_.add_argument(
        "--guarantees",
        choices=("true", "both"),
        default="true",
        help="evaluation semantics to enumerate: the paper default, or "
        "also the relaxed no-guarantee variant",
    )
    enumerate_.add_argument(
        "--matrix",
        type=_matrix,
        default="full",
        metavar="SPEC",
        help="conformance matrix: 'full' or axis=a+b pairs joined by ';' "
        "(axes: learners, backends), e.g. "
        "'learners=qhorn1;backends=bitmask+dbapi'",
    )
    enumerate_.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="append the JSONL corpus (queries, stores, verdicts, "
        "divergences, summary) here; doubles as a loadgen scenario file",
    )
    enumerate_.add_argument(
        "--resume",
        action="store_true",
        help="skip work already verified clean in --out and append",
    )
    enumerate_.add_argument(
        "--progress-every",
        type=_positive,
        default=25,
        metavar="N",
        help="progress line to stderr every N units of work (default 25)",
    )
    return parser


def _port(text: str) -> int:
    """argparse type of ``--port``: a TCP port number, 0-65535."""
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid port {text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {port}")
    return port


def _at_least(text: str, low: int) -> int:
    """``text`` as an int of ``low`` or more, else an argparse error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {low} or more, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type of ``--progress-every`` and ``--max-exprs``: an int
    of 1 or more (no expressions is no query to check)."""
    return _at_least(text, 1)


def _non_negative(text: str) -> int:
    """argparse type of ``--max-objects`` and ``--max-rows``: an int of
    0 or more (0 names a real space: the empty relation, or objects with
    no rows)."""
    return _at_least(text, 0)


def _max_props(text: str) -> int:
    """argparse type of ``--max-props``: 1 to ``MAX_PROPS``."""
    from repro.enumerate.space import MAX_PROPS

    value = _positive(text)
    if value > MAX_PROPS:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_PROPS} (semantic dedup walks 2^(2^K) "
            f"objects), got {value}"
        )
    return value


def _matrix(text: str) -> str:
    """argparse type of ``--matrix``: a spec ``MatrixSpec.parse`` accepts."""
    from repro.enumerate.differ import MatrixSpec

    try:
        MatrixSpec.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _too_wide(command: str, query) -> bool:
    """Is ``query`` too wide for a membership question?  If so, say so
    on stderr: the commands that ask questions then exit 2."""
    if 0 < query.n <= MAX_VARIABLES:
        return False
    print(
        f"repro {command}: query over n={query.n} variables; membership "
        f"questions hold 1..{MAX_VARIABLES}",
        file=sys.stderr,
    )
    return True


def _cmd_learn(args) -> int:
    target = parse_query(args.target, n=args.n)
    if _too_wide("learn", target):
        return 2
    cache = CachingOracle(QueryOracle(target))
    oracle = CountingOracle(cache)
    learner_cls = (
        Qhorn1Learner if args.learner == "qhorn1" else RolePreservingLearner
    )
    result = learner_cls(oracle).learn()
    exact = canonicalize(result.query) == canonicalize(target)
    if args.json:
        print(query_to_json(result.query))
    else:
        print(f"target : {target.shorthand()}")
        print(f"learned: {result.query.shorthand()}")
        print(
            f"questions: {oracle.questions_asked} "
            f"(distinct: {cache.stats.misses}, cache hits: {cache.stats.hits})"
        )
        print(
            f"rounds: {oracle.stats.rounds} "
            f"(mean batch: {oracle.stats.mean_batch:.1f}, "
            f"largest: {oracle.stats.largest_batch})"
        )
        print(f"exact: {exact}")
    return 0 if exact else 1


def _cmd_verify(args) -> int:
    n = args.n
    given = parse_query(args.given, n=n)
    intended = parse_query(args.intended, n=n or given.n)
    if intended.n > given.n:
        given = parse_query(args.given, n=intended.n)
    if _too_wide("verify", intended):
        return 2
    outcome = Verifier(given).run(QueryOracle(intended))
    print(f"given   : {given.shorthand()}")
    print(f"intended: {intended.shorthand()}")
    print(f"verified: {outcome.verified} "
          f"({outcome.questions_asked} questions)")
    for d in outcome.disagreements:
        print(f"  {d.describe()}")
    return 0 if outcome.verified else 1


def _cmd_revise(args) -> int:
    n = args.n
    given = parse_query(args.given, n=n)
    intended = parse_query(args.intended, n=n or given.n)
    if intended.n > given.n:
        given = parse_query(args.given, n=intended.n)
    if _too_wide("revise", intended):
        return 2
    oracle = CountingOracle(QueryOracle(intended))
    result = revise_query(given, oracle)
    exact = canonicalize(result.query) == canonicalize(intended)
    print(f"given  : {given.shorthand()}")
    print(f"revised: {result.query.shorthand()}")
    print(
        f"questions: {oracle.questions_asked} "
        f"in {oracle.stats.rounds} rounds"
    )
    for r in result.repairs:
        print(f"  {r}")
    print(f"exact: {exact}")
    return 0 if exact else 1


def _cmd_sql(args) -> int:
    from repro.data.propositions import BoolIs, Vocabulary
    from repro.data.schema import Attribute, FlatSchema
    from repro.data.sql import to_sql

    query = parse_query(args.query, n=args.n)
    schema = FlatSchema(
        "tuples",
        tuple(Attribute.boolean(f"p{i + 1}") for i in range(query.n)),
    )
    vocabulary = Vocabulary(
        schema,
        [BoolIs(f"p{i + 1}") for i in range(query.n)],
    )
    print(to_sql(query, vocabulary))
    return 0


def _cmd_demo(args) -> int:
    from repro.data import QueryEngine
    from repro.data.chocolate import (
        intro_query,
        random_store,
        storefront_vocabulary,
    )
    from repro.learning import learn_qhorn1

    vocabulary = storefront_vocabulary()
    store = random_store(100, random.Random(1304))
    engine = QueryEngine(store, vocabulary)
    print("propositions:")
    print(vocabulary.legend())
    cache = CachingOracle(QueryOracle(intro_query()))
    oracle = CountingOracle(cache)
    result = learn_qhorn1(oracle)
    print(f"\nintended: {intro_query().shorthand()}")
    print(f"learned : {result.query.shorthand()} "
          f"({oracle.questions_asked} questions, "
          f"{cache.stats.misses} distinct, "
          f"{oracle.stats.rounds} rounds)")
    matches = engine.execute_batch(result.query)
    index = engine.index
    print(f"matching boxes: {len(matches)} / {len(store)} "
          f"(bitmask: {len(index)} objects, "
          f"{index.distinct_masks} distinct masks)")
    for box in matches[:5]:
        print(f"  {box.key}")
    return 0


def _cmd_serve(args) -> int:
    """Multi-session round server (DESIGN.md §2f) on a TCP port;
    ``--stdio`` serves one connection on stdin/stdout (§2e)."""
    import asyncio
    import json
    import signal

    from repro.server import RoundServer, SessionStore
    from repro.server.core import check_limits

    if args.stdio and args.idle_timeout is not None:
        print(
            "repro serve: --stdio serves one connection and takes no "
            "--idle-timeout",
            file=sys.stderr,
        )
        return 2
    try:
        check_limits(args.idle_timeout)
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2

    async def serve() -> int:
        store = SessionStore(args.store)
        server = RoundServer(store, idle_timeout=args.idle_timeout)
        stop = asyncio.Event()
        if not args.stdio:
            await server.start(args.host, args.port)
            print(
                json.dumps(
                    {
                        "type": "listening",
                        "host": args.host,
                        "port": server.port,
                        "store": args.store,
                    }
                ),
                flush=True,
            )
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except NotImplementedError:  # pragma: no cover - non-unix
                    pass
        try:
            if args.stdio:
                await server.serve_stdio(sys.stdin, sys.stdout)
            else:
                await stop.wait()
        finally:
            await server.close()
            stats = server.stats()
            store.close()
            print(f"repro serve: shut down clean {stats}", file=sys.stderr)
        return 0

    return asyncio.run(serve())


def _cmd_enumerate(args) -> int:
    from repro.enumerate.runner import run_from_args

    return run_from_args(args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "learn": _cmd_learn,
        "verify": _cmd_verify,
        "revise": _cmd_revise,
        "sql": _cmd_sql,
        "demo": _cmd_demo,
        "serve": _cmd_serve,
        "enumerate": _cmd_enumerate,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, OSError, sqlite3.Error) as error:
        # A malformed query, or a file, database or address the command
        # cannot open, is an input error, not a crash.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
