"""The ``repro enumerate`` run loop: orchestration + JSONL corpus IO.

One run walks the bounded spaces from :mod:`repro.enumerate.space`,
drives every leg of the :class:`~repro.enumerate.differ.MatrixSpec`
through :func:`~repro.enumerate.differ.check_learners` /
:func:`~repro.enumerate.differ.check_backends`, and appends one JSONL
record per unit of work to the corpus file:

``meta``
    the run configuration (first line);
``query`` / ``store``
    the enumerated spaces themselves — ``query`` records double as
    scenarios for ``repro.server.loadgen --scenario``;
``learner``
    per-query matrix verdict with question/round counts and the paper
    bounds they were checked against;
``instance``
    per-(query, store) backend-matrix verdict;
``divergence``
    any disagreement, with a shrunk witness;
``summary``
    exhaustive coverage counts (last line).

Because every record carries the stable content-hash id of its subject,
``--resume`` replays the corpus file, collects the ids already verified
and appends only the remainder — a checkpointed exhaustive sweep.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

from repro.enumerate.differ import (
    BACKEND_LEGS,
    Divergence,
    MatrixSpec,
    check_backends,
    check_learners,
)
from repro.enumerate.space import (
    EnumeratedQuery,
    enumerate_queries,
    enumerate_stores,
    store_vocabulary,
)

__all__ = ["RunConfig", "RunResult", "load_done", "run"]


@dataclass(frozen=True)
class RunConfig:
    """Everything ``repro enumerate`` needs to reproduce a run."""

    max_props: int = 2
    max_objects: int = 2
    max_rows: int = 2
    max_exprs: int | None = None
    vocab: str = "bool"
    guarantees: str = "true"  # "true" | "both"
    matrix: str = "full"
    progress_every: int = 25

    def matrix_spec(self) -> MatrixSpec:
        return MatrixSpec.parse(self.matrix)

    def guarantee_values(self) -> tuple[bool, ...]:
        return (True,) if self.guarantees == "true" else (True, False)

    def to_record(self) -> dict:
        return {
            "kind": "meta",
            "max_props": self.max_props,
            "max_objects": self.max_objects,
            "max_rows": self.max_rows,
            "max_exprs": self.max_exprs,
            "vocab": self.vocab,
            "guarantees": self.guarantees,
            "matrix": self.matrix,
        }


@dataclass
class RunResult:
    """Coverage counters; ``summary()`` is the run's last JSONL line."""

    queries: int = 0
    stores: int = 0
    pairs: int = 0
    learner_runs: int = 0
    backend_checks: int = 0
    max_questions: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> dict:
        return {
            "kind": "summary",
            "queries": self.queries,
            "stores": self.stores,
            "pairs": self.pairs,
            "learner_runs": self.learner_runs,
            "backend_checks": self.backend_checks,
            "max_questions": self.max_questions,
            "divergences": len(self.divergences),
            "skipped": self.skipped,
            "bound_ok": self.ok,
            "status": "ok" if self.ok else "divergent",
        }


def load_done(path: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Parse a partial corpus: ids already verified clean.

    Returns ``(learner_query_ids, (query_id, store_id) pairs)``.  Only
    ``status: ok`` records count — divergent work reruns.
    """
    learners: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return learners, pairs
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line from an interrupted run
            if record.get("status") != "ok":
                continue
            if record.get("kind") == "learner":
                learners.add(record["id"])
            elif record.get("kind") == "instance":
                pairs.add((record["query"], record["store"]))
    return learners, pairs


def run(
    config: RunConfig,
    out: TextIO,
    resume: tuple[set[str], set[tuple[str, str]]] | None = None,
    progress: Callable[[str], None] | None = None,
) -> RunResult:
    """Execute one exhaustive sweep, appending JSONL records to ``out``."""
    matrix = config.matrix_spec()
    done_learners, done_pairs = resume if resume is not None else (set(), set())
    result = RunResult()

    def emit(record: dict) -> None:
        out.write(json.dumps(record, sort_keys=True) + "\n")

    def tick(message: str) -> None:
        if progress is not None:
            progress(message)

    emit(config.to_record())

    queries_by_n: dict[int, list[EnumeratedQuery]] = {}
    for entry in enumerate_queries(
        config.max_props,
        max_exprs=config.max_exprs,
        guarantees=config.guarantee_values(),
    ):
        queries_by_n.setdefault(entry.n, []).append(entry)
        result.queries += 1
        emit(entry.to_record())
    tick(f"enumerated {result.queries} queries (n<={config.max_props})")

    # Learner matrix: per query, store-independent.
    done_units = 0
    for entries in queries_by_n.values():
        for entry in entries:
            if not entry.query.require_guarantees:
                # Learners implement the paper's guarantee-clause
                # semantics; a relaxed target is not in their
                # hypothesis class (it differs exactly on
                # witness-free objects).  Relaxed queries still run
                # the full backend matrix below.
                continue
            if entry.id in done_learners:
                result.skipped += 1
                continue
            report, divergences = check_learners(entry, matrix)
            result.learner_runs += report["combos"]
            if report["questions"]:
                result.max_questions = max(
                    result.max_questions, max(report["questions"].values())
                )
            for divergence in divergences:
                result.divergences.append(divergence)
                emit(divergence.to_record())
            emit(report)
            done_units += 1
            if done_units % config.progress_every == 0:
                tick(
                    f"learner matrix: {done_units} queries, "
                    f"{result.learner_runs} legs, "
                    f"{len(result.divergences)} divergences"
                )
    tick(
        f"learner matrix done: {result.learner_runs} legs over "
        f"{result.queries} queries"
    )

    # Backend matrix: stores outer (backends build once per store).
    done_units = 0
    for n, entries in sorted(queries_by_n.items()):
        vocabulary = store_vocabulary(n, config.vocab)
        for store in enumerate_stores(
            n, config.max_objects, max_rows=config.max_rows
        ):
            result.stores += 1
            emit(store.to_record())
            pending = [
                e for e in entries if (e.id, store.id) not in done_pairs
            ]
            result.skipped += len(entries) - len(pending)
            result.pairs += len(entries)
            if not pending:
                continue
            relation = store.relation(vocabulary)
            backends = {
                name: BACKEND_LEGS[name](relation, vocabulary)
                for name in matrix.backends
            }
            try:
                for entry in pending:
                    record, divergences = check_backends(
                        entry, store, backends, relation, vocabulary
                    )
                    result.backend_checks += len(backends)
                    for divergence in divergences:
                        result.divergences.append(divergence)
                        emit(divergence.to_record())
                    emit(record)
                    done_units += 1
                    if done_units % config.progress_every == 0:
                        tick(
                            f"backend matrix: {done_units} pairs, "
                            f"{result.backend_checks} checks, "
                            f"{len(result.divergences)} divergences"
                        )
            finally:
                for backend in backends.values():
                    close = getattr(backend, "close", None)
                    if close is not None:
                        try:
                            close()
                        except Exception:
                            pass
    tick(
        f"backend matrix done: {result.backend_checks} checks over "
        f"{result.pairs} pairs ({result.stores} stores)"
    )

    emit(result.summary())
    return result


def run_from_args(args: Any) -> int:
    """``repro enumerate``: one sweep from the parsed arguments; prints
    the summary line and returns 1 on any divergence."""
    config = RunConfig(
        max_props=args.max_props,
        max_objects=args.max_objects,
        max_rows=args.max_rows,
        max_exprs=args.max_exprs,
        vocab=args.vocab,
        guarantees=args.guarantees,
        matrix=args.matrix,
        progress_every=args.progress_every,
    )
    resume = None
    if args.out is not None and args.resume:
        resume = load_done(args.out)
        skipping = len(resume[0]) + len(resume[1])
        if skipping:
            print(
                f"resuming: {len(resume[0])} queries / {len(resume[1])} "
                "pairs already verified",
                file=sys.stderr,
            )

    def progress(message: str) -> None:
        print(f"enumerate: {message}", file=sys.stderr)

    if args.out is None:
        import io

        sink: TextIO = io.StringIO()  # corpus discarded, summary kept
        result = run(config, sink, resume=resume, progress=progress)
    else:
        mode = "a" if args.resume else "w"
        with open(args.out, mode, encoding="utf-8") as sink:
            result = run(config, sink, resume=resume, progress=progress)
    print(json.dumps(result.summary(), sort_keys=True))
    return 0 if result.ok else 1
