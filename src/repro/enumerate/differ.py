"""Differential conformance over the enumerated spaces (DESIGN.md §2j).

Every enumerated (query, store) pair runs through the full cartesian
matrix and every leg must agree **exactly**:

* **Learner matrix** (per query — learners never see the store):
  learner (``qhorn1`` / ``naive`` / ``role-preserving``) × oracle
  transport (in-process ``direct`` / ``dbapi`` scratch database).
  Across all legs the question/answer transcript, the learned query and the
  :class:`~repro.oracle.counting.QuestionStats` must be bit-identical,
  the learned query must be semantically equivalent to the target, and
  the question count must satisfy the paper's bound — Theorem 3.1
  (``12·n·lg n + 12``, the constant the learning suite pins) for the
  qhorn-1 learner, the role-preserving bound
  (``4n³ + 6kn·lg n + 40``) for the §4 learner.
* **Backend matrix** (per (query, store) pair): both evaluation
  backends — ``bitmask`` and ``dbapi`` — must produce the per-object
  labels, answer keys and answer bitmask that
  :class:`~repro.core.query.CompiledQuery` computes from each object's
  abstraction.  The ``dbapi`` leg additionally answers membership
  questions through a :class:`~repro.oracle.SqlQueryOracle` *on the
  backend's own connection*
  (:meth:`~repro.oracle.SqlQueryOracle.for_backend`), so oracle batching
  and relation evaluation are checked against each other inside one
  database.

A failed leg becomes a :class:`Divergence` carrying a greedily
**shrunk** witness (expressions dropped from the query, objects and
rows dropped from the store, while the leg still disagrees) — small
enough to paste into a regression test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.core.normalize import brute_force_equivalent
from repro.core.query import QhornQuery
from repro.core.serialize import query_to_dict
from repro.core.tuples import Question
from repro.data.backends import create
from repro.enumerate.space import EnumeratedQuery, EnumeratedStore
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.learning.baselines import NaiveQhorn1Learner
from repro.oracle import CountingOracle, QueryOracle, SqlQueryOracle
from repro.oracle.counting import RecordingOracle

__all__ = [
    "Divergence",
    "LearnerOutcome",
    "MatrixSpec",
    "check_backends",
    "check_learners",
    "role_preserving_bound",
    "shrink_query",
    "shrink_store",
    "theorem_31_bound",
]


def theorem_31_bound(n: int) -> float:
    """Theorem 3.1's question bound at the constants the learning suite
    pins (``tests/learning/test_qhorn1.py``): ``12·n·lg n + 12``."""
    return 12 * n * math.log2(max(n, 2)) + 12


def role_preserving_bound(n: int, k: int) -> float:
    """The §4 role-preserving bound as pinned by the learning suite:
    ``4n³ + 6kn·lg n + 40``."""
    return 4 * n**3 + 6 * max(k, 1) * n * math.log2(max(n, 2)) + 40


LEARNER_FACTORIES: dict[str, Callable[[Any], Any]] = {
    "qhorn1": Qhorn1Learner,
    "naive": NaiveQhorn1Learner,
    "role-preserving": RolePreservingLearner,
}

#: (learner kind, n) → question-count bound, or None for unbounded
#: baselines.  ``naive`` is the Θ(n²) control — it must agree
#: everywhere but no paper bound applies.
def question_bound(learner: str, query: QhornQuery) -> float | None:
    if learner == "qhorn1":
        return theorem_31_bound(query.n)
    if learner == "role-preserving":
        return role_preserving_bound(query.n, query.size)
    return None


@dataclass(frozen=True)
class MatrixSpec:
    """Which legs of the conformance matrix to run.

    ``parse`` accepts ``"full"`` or a ``;``-separated spec of
    ``axis=choice+choice`` entries, e.g.
    ``learners=qhorn1+naive;backends=bitmask+dbapi;oracles=direct``.
    """

    learners: tuple[str, ...] = ("qhorn1", "naive", "role-preserving")
    oracles: tuple[str, ...] = ("direct", "dbapi")
    backends: tuple[str, ...] = ("bitmask", "dbapi")

    @classmethod
    def parse(cls, spec: str | None) -> "MatrixSpec":
        if spec is None or spec == "full":
            return cls()
        full = cls()
        chosen: dict[str, tuple[str, ...]] = {}
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            axis, _, raw = entry.partition("=")
            axis = axis.strip()
            if axis not in full.__dataclass_fields__:
                raise ValueError(
                    f"unknown matrix axis {axis!r}; choices: "
                    f"{', '.join(full.__dataclass_fields__)}"
                )
            values = tuple(v.strip() for v in raw.split("+") if v.strip())
            allowed = getattr(full, axis)
            for value in values:
                if value not in allowed:
                    raise ValueError(
                        f"unknown {axis} choice {value!r}; choices: "
                        f"{', '.join(allowed)}"
                    )
            chosen[axis] = values
        return replace(full, **chosen)


@dataclass
class Divergence:
    """One matrix leg that disagreed, with a shrunk witness."""

    site: str  # "backend" | "learner" | "equivalence" | "bound" | "crash"
    query_id: str
    detail: str
    store_id: str | None = None
    combo: dict = field(default_factory=dict)
    shrunk_query: dict | None = None
    shrunk_store: list | None = None

    def to_record(self) -> dict:
        return {
            "kind": "divergence",
            "site": self.site,
            "query": self.query_id,
            "store": self.store_id,
            "combo": self.combo,
            "detail": self.detail,
            "shrunk_query": self.shrunk_query,
            "shrunk_store": self.shrunk_store,
        }


# ----------------------------------------------------------------------
# Learner matrix
# ----------------------------------------------------------------------
@dataclass
class LearnerOutcome:
    """Everything one learner leg must agree on, in comparable form."""

    transcript: tuple
    stats: tuple
    learned: QhornQuery
    questions: int
    rounds: int


def _transport_oracle(
    target: QhornQuery, oracle_kind: str
) -> tuple[Any, list[Any]]:
    """Build one leg's transport oracle; returns (oracle, closeables)."""
    if oracle_kind == "direct":
        return QueryOracle(target), []
    if oracle_kind == "dbapi":
        oracle = SqlQueryOracle(target)
        return oracle, [oracle]
    raise ValueError(f"unknown oracle transport {oracle_kind!r}")


def _stats_key(stats: Any) -> tuple:
    return (
        stats.questions,
        stats.tuples,
        stats.rounds,
        stats.largest_batch,
    )


def _transcript_key(
    transcript: Sequence[tuple[Question, bool]]
) -> tuple:
    return tuple(
        (q.n, tuple(q.sorted_tuples()), bool(a)) for q, a in transcript
    )


def run_learner_leg(
    target: QhornQuery, learner_kind: str, oracle_kind: str
) -> LearnerOutcome:
    """Run one leg of the learner matrix to completion."""
    transport, closeables = _transport_oracle(target, oracle_kind)
    try:
        recording = RecordingOracle(transport)
        counting = CountingOracle(recording)
        result = LEARNER_FACTORIES[learner_kind](counting).learn()
        learned = getattr(result, "query", result)
        return LearnerOutcome(
            transcript=_transcript_key(recording.transcript),
            stats=_stats_key(counting.stats),
            learned=learned,
            questions=counting.stats.questions,
            rounds=counting.stats.rounds,
        )
    finally:
        for closeable in closeables:
            close = getattr(closeable, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass


def check_learners(
    entry: EnumeratedQuery, matrix: MatrixSpec
) -> tuple[dict, list[Divergence]]:
    """Run every learner-matrix leg for one enumerated query.

    Returns ``(report, divergences)`` — the report carries per-learner
    question/round counts and the bounds they were checked against.

    Callers gate on ``entry.query.require_guarantees``: the learners
    emit paper-semantics queries, so a relaxed (``footnote-1``) target
    is outside their hypothesis class and the equivalence check would
    flag the semantics gap, not a bug (the runner routes relaxed
    queries through the backend matrix only).
    """
    target = entry.query
    divergences: list[Divergence] = []
    report: dict = {
        "kind": "learner",
        "id": entry.id,
        "n": target.n,
        "combos": 0,
        "questions": {},
        "rounds": {},
        "bounds": {},
        "status": "ok",
    }

    def diverge(site: str, detail: str, combo: dict) -> None:
        shrunk = shrink_query(
            target,
            lambda q: _learner_leg_differs(q, matrix, combo),
        )
        divergences.append(
            Divergence(
                site=site,
                query_id=entry.id,
                detail=detail,
                combo=combo,
                shrunk_query=query_to_dict(shrunk),
            )
        )
        report["status"] = "divergent"

    for learner_kind in matrix.learners:
        reference: LearnerOutcome | None = None
        reference_combo: dict | None = None
        for oracle_kind in matrix.oracles:
            combo = {"learner": learner_kind, "oracle": oracle_kind}
            try:
                outcome = run_learner_leg(target, learner_kind, oracle_kind)
            except Exception as error:
                divergences.append(
                    Divergence(
                        site="crash",
                        query_id=entry.id,
                        detail=f"{type(error).__name__}: {error}",
                        combo=combo,
                        shrunk_query=query_to_dict(target),
                    )
                )
                report["status"] = "divergent"
                continue
            report["combos"] += 1
            if reference is None:
                reference = outcome
                reference_combo = combo
                # Correctness + bound checks once per learner: the
                # other legs are then pinned bit-identical to this one.
                if not brute_force_equivalent(outcome.learned, target):
                    diverge(
                        "equivalence",
                        f"{learner_kind} learned "
                        f"{outcome.learned.shorthand()!r}, target "
                        f"{target.shorthand()!r}",
                        combo,
                    )
                bound = question_bound(learner_kind, target)
                report["questions"][learner_kind] = outcome.questions
                report["rounds"][learner_kind] = outcome.rounds
                if bound is not None:
                    report["bounds"][learner_kind] = round(bound, 3)
                    if outcome.questions > bound:
                        divergences.append(
                            Divergence(
                                site="bound",
                                query_id=entry.id,
                                detail=(
                                    f"{learner_kind} asked "
                                    f"{outcome.questions} questions > "
                                    f"bound {bound:.1f} at n={target.n}"
                                ),
                                combo=combo,
                                shrunk_query=query_to_dict(target),
                            )
                        )
                        report["status"] = "divergent"
                continue
            for aspect, got, want in (
                ("transcript", outcome.transcript, reference.transcript),
                ("stats", outcome.stats, reference.stats),
                ("learned", outcome.learned, reference.learned),
            ):
                if got != want:
                    diverge(
                        "learner",
                        f"{aspect} differs from reference combo "
                        f"{reference_combo}",
                        combo,
                    )
                    break
    return report, divergences


def _learner_leg_differs(
    query: QhornQuery, matrix: MatrixSpec, combo: dict
) -> bool:
    """Shrinking predicate: does ``combo``'s leg still disagree with the
    first-configured leg of the same learner on ``query``?"""
    if not _in_learner_class(query, combo["learner"]):
        return False
    try:
        probe = run_learner_leg(query, combo["learner"], combo["oracle"])
        reference = run_learner_leg(query, combo["learner"], matrix.oracles[0])
    except Exception:
        return True
    return (
        probe.transcript != reference.transcript
        or probe.stats != reference.stats
        or probe.learned != reference.learned
        or not brute_force_equivalent(probe.learned, query)
    )


def _in_learner_class(query: QhornQuery, learner: str) -> bool:
    if learner in ("qhorn1", "naive"):
        return query.is_qhorn1()
    return query.is_role_preserving()


# ----------------------------------------------------------------------
# Backend matrix
# ----------------------------------------------------------------------
def reference_labels(
    query: QhornQuery, relation: Any, vocabulary: Any
) -> list[bool]:
    """The bitmask engine's per-object ground truth: compile once,
    evaluate each object's abstraction."""
    compiled = query.compile()
    return [
        compiled.evaluate(vocabulary.boolean_tuples(obj.rows))
        for obj in relation
    ]


def check_backends(
    entry: EnumeratedQuery,
    store: EnumeratedStore,
    backends: dict[str, Any],
    relation: Any,
    vocabulary: Any,
) -> tuple[dict, list[Divergence]]:
    """Check every built backend against the reference on one pair.

    ``backends`` maps backend name → built backend (callers build once
    per store and sweep all queries over it).
    """
    query = entry.query
    expected = reference_labels(query, relation, vocabulary)
    expected_keys = [
        obj.key for obj, label in zip(relation, expected) if label
    ]
    expected_bits = 0
    for position, label in enumerate(expected):
        if label:
            expected_bits |= 1 << position
    divergences: list[Divergence] = []
    record = {
        "kind": "instance",
        "query": entry.id,
        "store": store.id,
        "matches": len(expected_keys),
        "backends": sorted(backends),
        "status": "ok",
    }
    for leg, backend in backends.items():
        problem: str | None = None
        try:
            labels = backend.matches_many(query)
            if list(labels) != expected:
                problem = f"matches_many {labels!r} != {expected!r}"
            else:
                keys = [obj.key for obj in backend.execute(query)]
                if sorted(keys) != sorted(expected_keys):
                    problem = f"execute keys {keys!r} != {expected_keys!r}"
                elif backend.matching_bits(query) != expected_bits:
                    problem = (
                        f"matching_bits {backend.matching_bits(query):#x} "
                        f"!= {expected_bits:#x}"
                    )
        except Exception as error:
            problem = f"{type(error).__name__}: {error}"
        if problem is None and leg == "dbapi":
            problem = _check_backend_oracle(query, backend, store)
        if problem is not None:
            shrunk_query, shrunk_store = shrink_backend_case(
                query, store, leg
            )
            divergences.append(
                Divergence(
                    site="backend",
                    query_id=entry.id,
                    store_id=store.id,
                    detail=problem,
                    combo={"backend": leg},
                    shrunk_query=query_to_dict(shrunk_query),
                    shrunk_store=[sorted(m) for m in shrunk_store],
                )
            )
            record["status"] = "divergent"
    return record, divergences


def _check_backend_oracle(
    query: QhornQuery, backend: Any, store: EnumeratedStore
) -> str | None:
    """The §2j oracle cross-check: membership answers on the *backend's
    own* connection must match the compiled query on every (non-empty)
    object of the store."""
    questions = [
        Question.of(store.n, masks) for masks in store.mask_sets if masks
    ]
    if not questions:
        return None
    compiled = query.compile()
    expected = [compiled.evaluate(q.tuples) for q in questions]
    oracle = SqlQueryOracle.for_backend(query, backend)
    try:
        got = oracle.ask_many(questions)
    except Exception as error:
        return f"backend oracle: {type(error).__name__}: {error}"
    finally:
        oracle.close()
    if got != expected:
        return f"backend oracle answers {got!r} != {expected!r}"
    return None


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_query(
    query: QhornQuery,
    still_fails: Callable[[QhornQuery], bool],
    max_probes: int = 200,
) -> QhornQuery:
    """Greedily drop expressions while the failure persists."""
    probes = 0
    improved = True
    current = query
    while improved and probes < max_probes:
        improved = False
        for kind in ("universals", "existentials"):
            for expression in sorted(getattr(current, kind)):
                candidate = QhornQuery(
                    n=current.n,
                    universals=(
                        current.universals - {expression}
                        if kind == "universals"
                        else current.universals
                    ),
                    existentials=(
                        current.existentials - {expression}
                        if kind == "existentials"
                        else current.existentials
                    ),
                    require_guarantees=current.require_guarantees,
                )
                probes += 1
                try:
                    fails = still_fails(candidate)
                except Exception:
                    fails = True
                if fails:
                    current = candidate
                    improved = True
                    break
                if probes >= max_probes:
                    break
            if improved:
                break
    return current


def shrink_store(
    mask_sets: Sequence[frozenset[int]],
    still_fails: Callable[[list[frozenset[int]]], bool],
    max_probes: int = 200,
) -> list[frozenset[int]]:
    """Greedily drop whole objects, then single rows, while failing."""
    probes = 0
    current = list(mask_sets)
    improved = True
    while improved and probes < max_probes:
        improved = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            probes += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        for index, masks in enumerate(current):
            for mask in sorted(masks):
                candidate = list(current)
                candidate[index] = masks - {mask}
                probes += 1
                if still_fails(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


def shrink_backend_case(
    query: QhornQuery, store: EnumeratedStore, leg: str
) -> tuple[QhornQuery, list[frozenset[int]]]:
    """Minimize a backend divergence along both axes (store first —
    fewer objects make the query shrink probes cheaper)."""

    def fails(q: QhornQuery, mask_sets: list[frozenset[int]]) -> bool:
        probe_store = EnumeratedStore(
            id="shrink",
            n=store.n,
            objects=tuple(tuple(sorted(m)) for m in mask_sets),
        )
        from repro.enumerate.space import store_vocabulary

        vocabulary = store_vocabulary(store.n, "bool")
        relation = probe_store.relation(vocabulary)
        backend = None
        try:
            backend = create(leg, relation, vocabulary)
            expected = reference_labels(q, relation, vocabulary)
            if list(backend.matches_many(q)) != expected:
                return True
            if leg == "dbapi":
                return (
                    _check_backend_oracle(q, backend, probe_store) is not None
                )
            return False
        except Exception:
            return True
        finally:
            close = getattr(backend, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass

    masks = shrink_store(
        store.mask_sets, lambda candidate: fails(query, candidate)
    )
    shrunk = shrink_query(query, lambda q: fails(q, masks))
    return shrunk, masks
