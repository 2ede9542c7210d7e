"""Differential conformance over the enumerated spaces (DESIGN.md §2j).

Every enumerated query, and every enumerated (query, store) pair, runs
through each leg of the matrix:

* **Learner matrix** (per query — learners never see the store): one
  leg per learner (``qhorn1`` / ``naive`` / ``role-preserving``), each
  answered by the in-process simulated user
  (:class:`~repro.oracle.QueryOracle`).  The learned query must be
  semantically equivalent to the target, and the question count must
  satisfy the paper's bound — Theorem 3.1 (``12·n·lg n + 12``, the
  constant the learning suite pins) for the qhorn-1 learner, the
  role-preserving bound (``4n³ + 6kn·lg n + 40``) for the §4 learner.
* **Backend matrix** (per (query, store) pair): both evaluators in
  :data:`BACKEND_LEGS` — ``bitmask``, the in-process
  :class:`~repro.data.index.RelationIndex`, and ``dbapi``, the SQL
  reference :class:`~repro.data.dbapi.DbApiBackend` — must produce
  exactly the per-object labels, answer keys and answer bitmask that
  :class:`~repro.core.query.CompiledQuery` computes from each object's
  abstraction.

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
from repro.data.dbapi import DbApiBackend
from repro.data.index import RelationIndex
from repro.enumerate.space import EnumeratedQuery, EnumeratedStore
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.learning.baselines import NaiveQhorn1Learner
from repro.oracle import CountingOracle, QueryOracle

__all__ = [
    "BACKEND_LEGS",
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

#: The backend matrix's legs: each class is built as ``cls(relation,
#: vocabulary)`` and answers ``matches_many``, ``execute`` and
#: ``matching_bits``.
BACKEND_LEGS: dict[str, type] = {
    "bitmask": RelationIndex,
    "dbapi": DbApiBackend,
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
    ``learners=qhorn1+naive;backends=bitmask+dbapi``.
    """

    learners: tuple[str, ...] = ("qhorn1", "naive", "role-preserving")
    backends: tuple[str, ...] = tuple(BACKEND_LEGS)

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
            if not values:
                # An axis with no legs would report a clean sweep over
                # nothing.
                raise ValueError(f"matrix axis {axis!r} names no choices")
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

    site: str  # "backend" | "equivalence" | "bound" | "crash"
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
    """What one learner leg is checked on."""

    learned: QhornQuery
    questions: int
    rounds: int


def run_learner_leg(target: QhornQuery, learner_kind: str) -> LearnerOutcome:
    """Run one learner against the simulated user of ``target``."""
    counting = CountingOracle(QueryOracle(target))
    result = LEARNER_FACTORIES[learner_kind](counting).learn()
    return LearnerOutcome(
        learned=getattr(result, "query", result),
        questions=counting.stats.questions,
        rounds=counting.stats.rounds,
    )


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
    for learner_kind in matrix.learners:
        combo = {"learner": learner_kind}
        try:
            outcome = run_learner_leg(target, learner_kind)
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
        if not brute_force_equivalent(outcome.learned, target):
            shrunk = shrink_query(
                target, lambda q: _learns_wrong_query(q, learner_kind)
            )
            divergences.append(
                Divergence(
                    site="equivalence",
                    query_id=entry.id,
                    detail=(
                        f"{learner_kind} learned "
                        f"{outcome.learned.shorthand()!r}, target "
                        f"{target.shorthand()!r}"
                    ),
                    combo=combo,
                    shrunk_query=query_to_dict(shrunk),
                )
            )
            report["status"] = "divergent"
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
    return report, divergences


def _learns_wrong_query(query: QhornQuery, learner: str) -> bool:
    """Shrinking predicate: does ``learner`` still learn a query that is
    not equivalent to ``query``?"""
    if not _in_learner_class(query, learner):
        return False
    try:
        learned = run_learner_leg(query, learner).learned
    except Exception:
        return True
    return not brute_force_equivalent(learned, query)


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
            backend = BACKEND_LEGS[leg](relation, vocabulary)
            expected = reference_labels(q, relation, vocabulary)
            return list(backend.matches_many(q)) != expected
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
