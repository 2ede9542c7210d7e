"""Served-round and query-answering benchmark.

One command per run::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``serve-steady``  -- a round server answers seeded dialogues over two
  persistent connections; every round takes the write path.
* ``serve-resume``  -- the same, but every answered round is parked
  (``quit``) and resumed (``reconnect``) on the same socket, so every round
  also reads the store and replays the session.
* ``engine-scan``   -- ``QueryEngine.execute_batch`` answers seeded qhorn
  queries over 100 000 objects.

Every workload reports the same end-to-end metrics, each on its own unit
of work: ``throughput_per_s`` is finished dialogues or answered queries per
second; ``latency_p50_ms``/``latency_p90_ms`` time a round (answers sent to
next round received), a resume (``reconnect`` to the re-sent round) or one
``execute_batch`` call; ``rounds_per_op`` and ``items_per_op`` are rounds
and questions per dialogue, or 1 call and the answers per query.

Every time reported is scaled to a reference host (see ``measure.py``): a
fixed stdlib probe runs between units of work, and each unit's time is
multiplied by the probe's reference time over its time around the unit.  On a
shared host this removes most of the host's own drift from run to run;
throughput as measured is printed beside the scaled figure.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run is made twice, untraced
then with timing wrappers installed, and the JSON holds the per-layer
metrics plus the tracing overhead (layers a workload does not use read 0).
Lines before it are for people: the metrics under their serving-tier names
with units and sample counts, the per-layer table, and host diagnostics
(``nproc``, TIME_WAIT sockets before the run, the probe's time between
phases, and its median over each timed phase).  Every output is checked; a wrong
one makes the command exit 1 after printing.  Results and gzipped spans go
to ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from measure import HostProbes, host_speed_ms, time_wait_sockets
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
WORKLOADS = ("serve-steady", "serve-resume", "engine-scan")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rounds_per_op": "count",
    "items_per_op": "count",
}

PER_LAYER = {
    "server.residual_us_per_round": "us",
    "server.wait_us_per_round": "us",
    "server.sessions_resumed": "count",
    "server.wire_errors": "count",
    "server.claims_rejected": "count",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "session.start_us": "us",
    "session.feed_us": "us",
    "session.snapshot_us": "us",
    "session.resume_us": "us",
    "session.replayed_rounds_per_resume": "count",
    "learning.questions_per_round.qhorn1": "count",
    "learning.questions_per_round.role-preserving": "count",
    "store.save_us": "us",
    "store.bytes_per_save": "bytes",
    "store.saves_per_round": "count",
    "store.load_us": "us",
    "store.claim_us": "us",
    "store.release_us": "us",
    "store.file_bytes_per_session": "bytes",
    "oracle.answer_us": "us",
    "core.compile_us": "us",
    "index.build_s": "s",
    "index.matching_bits_us": "us",
    "engine.materialize_us": "us",
    "index.distinct_masks": "count",
    "engine.answers_per_query": "count",
    "gc.pause_ms": "ms",
    "gc.gen2_collections": "count",
    "client.connections_opened": "count",
    "trace.overhead_pct": "%",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOADS + ("all",),
        required=True,
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    against any other copy of the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


class Outcome(NamedTuple):
    metrics: dict[str, float]
    #: ``name -> (value, unit, note)`` under the workload's own names.
    named: dict[str, tuple]
    #: Per-layer metrics of the traced run, or ``None`` untraced.
    layers: dict[str, float] | None
    recorder: SpanRecorder | None
    problems: list[str]
    attempted: int
    failed: int


Speed = Callable[[str, HostProbes | None], None]


def _serve(args: argparse.Namespace, speed: Speed) -> Outcome:
    import serve_load

    dialogues = serve_load.make_dialogues(args.seed, serve_load.PASS_SIZE)
    speed("after_inputs")
    phase = serve_load.run_phase(args.workload, dialogues, args.seconds)
    speed("after_run", phase.probes)
    problems, failed = serve_load.check(phase)
    metrics, named = serve_load.end_to_end(phase, failed)
    if not args.trace:
        return Outcome(metrics, named, None, None, problems, len(phase.served), failed)
    with SpanRecorder() as recorder:
        traced = serve_load.run_phase(args.workload, dialogues, args.seconds, recorder)
    speed("after_traced_run", traced.probes)
    traced_problems, traced_failed = serve_load.check(traced)
    return Outcome(
        metrics,
        named,
        serve_load.per_layer(traced, recorder, phase),
        recorder,
        problems + traced_problems,
        len(phase.served) + len(traced.served),
        failed + traced_failed,
    )


def _engine(args: argparse.Namespace, speed: Speed) -> Outcome:
    import engine_scan

    data = engine_scan.make_data(args.seed)
    speed("after_inputs")
    phase = engine_scan.run_phase(data, args.seed, args.seconds)
    speed("after_run", phase.probes)
    metrics, named = engine_scan.end_to_end(phase)
    if not args.trace:
        return Outcome(
            metrics,
            named,
            None,
            None,
            phase.problems,
            len(phase.latencies),
            len(phase.problems),
        )
    with SpanRecorder() as recorder:
        traced = engine_scan.run_phase(data, args.seed, args.seconds, recorder)
    speed("after_traced_run", traced.probes)
    problems = phase.problems + traced.problems
    return Outcome(
        metrics,
        named,
        engine_scan.per_layer(traced, recorder, phase),
        recorder,
        problems,
        len(phase.latencies) + len(traced.latencies),
        len(problems),
    )


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, exactly as when run alone; the
    last line merges their results under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload",
                workload,
                "--seed",
                str(args.seed),
                "--seconds",
                f"{args.seconds:g}",
                "--trace",
                str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 1
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def _show(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    _import_program()
    WORK.mkdir(exist_ok=True)
    diagnostics = {
        "nproc": os.cpu_count(),
        "time_wait_before": time_wait_sockets(),
        "host_probe_ms": {},
        "phase_probe_median_ms": {},
    }

    def speed(label: str, phase_probes: HostProbes | None = None) -> None:
        diagnostics["host_probe_ms"][label] = round(host_speed_ms(), 3)
        if phase_probes is not None:
            diagnostics["phase_probe_median_ms"][label] = round(
                phase_probes.median_ms(), 3
            )

    speed("start")
    run = _engine if args.workload == "engine-scan" else _serve
    outcome = run(args, speed)
    layers, problems = outcome.layers, outcome.problems

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print("diagnostics " + json.dumps(diagnostics))
    for name, (value, unit, note) in outcome.named.items():
        print(f"  {name:24s} {_show(value):>12s} {unit:6s} {note}")
    if layers is not None:
        print("per-layer (traced run)")
        for name, unit in PER_LAYER.items():
            print(f"  {name:46s} {_show(layers.get(name, 0)):>12s} {unit}")
        outcome.recorder.write(WORK / f"spans-{args.workload}.jsonl.gz")
    for problem in problems[:20]:
        print(f"WRONG: {problem}")

    if layers is None:
        reported = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        reported = {
            name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"result": result, "named": outcome.named, "diagnostics": diagnostics},
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
