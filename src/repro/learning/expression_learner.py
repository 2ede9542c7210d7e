"""Learning role-preserving queries from expression questions (§6).

The companion learner to :class:`~repro.oracle.expression.ExpressionOracle`:
instead of showing the user example objects, it asks directly whether
candidate expressions must hold.  Both predicates are monotone —

* ``requires_implication(V, h)`` is monotone increasing in ``V`` (some body
  of ``h`` lies inside ``V``), matching Def. 3.1's dependence structure, so
  the same greedy minimization + cross-product root search recovers all
  dominant bodies;
* ``requires_conjunction(C)`` is monotone *decreasing* in ``C`` (the
  required conjunction family is downward closed), so dominant conjunctions
  are the family's maximal sets, found by greedy growth plus root-style
  restarts (the dual of the body search).

Each expression question yields one bit, exactly like a membership
question, so the asymptotics match §3.2; experiment E16 measures the
constant-factor savings (no all-true tuples, no matrix questions, no
pruning overhead).

Sans-io (DESIGN.md §2e): the learner emits
:class:`~repro.oracle.expression.ExpressionQuestion` payloads through the
same :class:`~repro.protocol.core.Round` protocol as the membership
learners — drivers dispatch them onto an expression oracle's methods one
call per question.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import FrozenSet, Iterable

from repro.core.query import QhornQuery
from repro.oracle.expression import (
    CountingExpressionOracle,
    ExpressionOracle,
    ExpressionQuestion,
)
from repro.protocol.core import Steps, ask_one
from repro.protocol.drivers import drive

__all__ = ["ExpressionLearnerResult", "ExpressionLearner"]


@dataclass
class ExpressionLearnerResult:
    query: QhornQuery
    questions_asked: int


class ExpressionLearner:
    """Exact learner over expression questions for role-preserving qhorn."""

    def __init__(
        self, oracle: ExpressionOracle | CountingExpressionOracle
    ) -> None:
        self.oracle = (
            oracle
            if isinstance(oracle, CountingExpressionOracle)
            else CountingExpressionOracle(oracle)
        )
        self.n = oracle.n
        #: Expression questions emitted by the running :meth:`steps` pass.
        self._asked = 0

    def learn(self) -> ExpressionLearnerResult:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    # -- question predicates (step generators) --------------------------
    def _requires_implication(self, body: Iterable[int], head: int) -> Steps:
        self._asked += 1
        return (
            yield from ask_one(ExpressionQuestion.implication(body, head))
        )

    def _requires_conjunction(self, variables: Iterable[int]) -> Steps:
        self._asked += 1
        return (
            yield from ask_one(ExpressionQuestion.conjunction(variables))
        )

    def steps(self) -> Steps:
        """The learner as a sans-io step generator (DESIGN.md §2e)."""
        self._asked = 0
        heads = []
        for h in range(self.n):
            required = yield from self._requires_implication(
                [v for v in range(self.n) if v != h], h
            )
            if required:
                heads.append(h)
        universals: list[tuple[list[int], int]] = []
        for h in heads:
            bodies = yield from self._learn_bodies(h, heads)
            for body in bodies:
                universals.append((sorted(body), h))
        conjunctions = yield from self._learn_conjunctions()
        query = QhornQuery.build(
            self.n,
            universals=universals,
            existentials=[sorted(c) for c in conjunctions],
        )
        return ExpressionLearnerResult(
            query=query, questions_asked=self._asked
        )

    # ------------------------------------------------------------------
    def _learn_bodies(self, head: int, heads: list[int]) -> Steps:
        non_heads = [v for v in range(self.n) if v not in set(heads)]
        if (yield from self._requires_implication([], head)):
            return [frozenset()]
        bodies: list[FrozenSet[int]] = []
        asked: set[frozenset[int]] = set()
        pending: list[frozenset[int]] = [frozenset()]
        while pending:
            exclusion = pending.pop()
            if exclusion in asked:
                continue
            asked.add(exclusion)
            cover = [v for v in non_heads if v not in exclusion]
            if not (yield from self._requires_implication(cover, head)):
                continue
            body = yield from self._minimize_body(head, cover)
            bodies.append(body)
            pending = [
                frozenset(choice)
                for choice in product(*bodies)
                if frozenset(choice) not in asked
            ]
        return bodies

    def _minimize_body(self, head: int, cover: list[int]) -> Steps:
        kept = list(cover)
        for x in list(cover):
            trial = [v for v in kept if v != x]
            if (yield from self._requires_implication(trial, head)):
                kept = trial
        return frozenset(kept)

    # ------------------------------------------------------------------
    def _learn_conjunctions(self) -> Steps:
        """All maximal required conjunctions (the downward-closed family's
        border), via greedy growth from cross-product seed roots."""
        maximal: list[FrozenSet[int]] = []
        asked: set[frozenset[int]] = set()
        pending: list[frozenset[int]] = [frozenset()]
        while pending:
            seed = pending.pop()
            if seed in asked:
                continue
            asked.add(seed)
            if seed and not (yield from self._requires_conjunction(seed)):
                continue
            grown = yield from self._grow(seed)
            if any(grown <= m for m in maximal):
                continue
            maximal = [m for m in maximal if not m < grown]
            maximal.append(grown)
            # A yet-unknown maximal set must contain, for each known one,
            # some variable outside it: seed the next round accordingly.
            complements = [
                [v for v in range(self.n) if v not in m] for m in maximal
            ]
            if all(complements):
                pending = [
                    frozenset(choice)
                    for choice in product(*complements)
                    if frozenset(choice) not in asked
                ]
            else:
                pending = []
        return maximal

    def _grow(self, seed: FrozenSet[int]) -> Steps:
        current = set(seed)
        for v in range(self.n):
            if v in current:
                continue
            if (yield from self._requires_conjunction(current | {v})):
                current.add(v)
        return frozenset(current)
