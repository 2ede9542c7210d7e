"""Baseline learners the paper compares against (explicitly or implicitly).

* :class:`NaiveQhorn1Learner` — the "most straightforward way" of §3.1.2:
  serial dependence tests instead of binary search, Θ(n²) questions.  The
  E2 experiment measures the gap to the O(n lg n) learner.
* :class:`BruteForceLearner` — candidate elimination over an explicit
  hypothesis space.  Exact for any class but needs one question per
  eliminated candidate in the worst case; used to demonstrate the doubly
  exponential blow-up of unrestricted quantified queries (§2) and to
  cross-check the clever learners on tiny ``n``.
* :class:`HeadPairLearner` — a learner restricted to at most ``c`` tuples
  per question for Lemma 3.4's head-pair family, realizing the
  ``≈ n²/c²`` question count the lemma proves optimal.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.core import tuples as bt
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.learning.qhorn1 import Qhorn1Group, Qhorn1Result
from repro.learning.questions import (
    existential_independence_question,
    single_false_question,
    universal_dependence_question,
    universal_head_question,
)
from repro.oracle.base import MembershipOracle
from repro.protocol.core import Steps, ask_one, ask_round
from repro.protocol.drivers import drive

__all__ = ["NaiveQhorn1Learner", "BruteForceLearner", "HeadPairLearner"]


class NaiveQhorn1Learner:
    """Serial-scan qhorn-1 learner: Θ(n²) membership questions.

    Implements the strawman of §3.1.2 ("we serially test if h depends on
    each variable e ∈ E") and its existential analogue: a full pairwise
    dependence graph over the existential variables, from which groups,
    bodies and heads are read off combinatorially.

    Every scan is non-adaptive — the whole question set is fixed upfront —
    so the learner emits exactly three batch rounds (heads, universal
    dependences, the pairwise graph).  It stays Θ(n²) in the paper's
    question count; batching only collapses the round-trips.
    """

    def __init__(self, oracle: MembershipOracle) -> None:
        self.oracle = oracle
        self.n = oracle.n

    def learn(self) -> Qhorn1Result:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def steps(self) -> Steps:
        """The learner as a sans-io step generator (DESIGN.md §2e)."""
        n = self.n
        head_answers = yield from ask_round(
            [universal_head_question(n, v) for v in range(n)]
        )
        universal_heads = [
            v for v, is_answer in enumerate(head_answers) if not is_answer
        ]
        existential_vars = [
            v for v in range(n) if v not in set(universal_heads)
        ]

        groups: dict[frozenset[int], Qhorn1Group] = {}

        def group_for(body: frozenset[int]) -> Qhorn1Group:
            if body not in groups:
                groups[body] = Qhorn1Group(body=body)
            return groups[body]

        # Universal bodies: one dependence question per (head, variable),
        # all |heads|·|E| of them in one round.
        pairs = [(h, e) for h in universal_heads for e in existential_vars]
        pair_answers = yield from ask_round(
            [universal_dependence_question(n, h, [e]) for h, e in pairs]
        )
        dependence = dict(zip(pairs, pair_answers))
        universal_bodies: list[frozenset[int]] = []
        for h in universal_heads:
            body = frozenset(
                e for e in existential_vars if dependence[(h, e)]
            )
            group_for(body).universal_heads.add(h)
            if body and body not in universal_bodies:
                universal_bodies.append(body)
        universal_body_vars = {v for b in universal_bodies for v in b}

        # Full pairwise dependence graph over the existential variables,
        # C(|E|, 2) questions in one round.
        edges = list(combinations(existential_vars, 2))
        edge_answers = yield from ask_round(
            [
                existential_independence_question(n, [u], [v])
                for u, v in edges
            ]
        )
        depends: dict[int, set[int]] = {v: set() for v in existential_vars}
        for (u, v), independent in zip(edges, edge_answers):
            if not independent:
                depends[u].add(v)
                depends[v].add(u)

        unconstrained: set[int] = set()
        seen: set[int] = set()
        for start in existential_vars:
            if start in seen:
                continue
            component = self._component(start, depends)
            seen |= component
            if len(component) == 1:
                if component & universal_body_vars:
                    continue  # a body variable with no existential heads
                (e,) = component
                if (yield from ask_one(single_false_question(n, e))):
                    unconstrained.add(e)
                else:
                    group_for(frozenset()).existential_heads.add(e)
                continue
            body_part = component & universal_body_vars
            if body_part:
                # Existential heads attached to a universal body.
                for e in component - body_part:
                    group_for(frozenset(body_part)).existential_heads.add(e)
                continue
            heads = {
                v
                for v in component
                if any(
                    u != v and u not in depends[v] for u in component
                )
            }
            if not heads:
                # A clique: at most one head; whole component is the
                # conjunction regardless of which member heads it.
                head = max(component)
                body = frozenset(component - {head})
                group_for(body).existential_heads.add(head)
            else:
                body = frozenset(component - heads)
                g = group_for(body)
                g.existential_heads.update(heads)

        query = self._assemble(groups)
        return Qhorn1Result(
            n=n,
            query=query,
            groups=list(groups.values()),
            universal_heads=frozenset(universal_heads),
            unconstrained=frozenset(unconstrained),
        )

    @staticmethod
    def _component(start: int, depends: dict[int, set[int]]) -> set[int]:
        out = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in depends[v]:
                if u not in out:
                    out.add(u)
                    stack.append(u)
        return out

    def _assemble(
        self, groups: dict[frozenset[int], Qhorn1Group]
    ) -> QhornQuery:
        universals: list[tuple[Sequence[int], int]] = []
        existentials: list[Sequence[int]] = []
        for body, g in groups.items():
            for h in sorted(g.universal_heads):
                universals.append((sorted(body), h))
            for h in sorted(g.existential_heads):
                existentials.append(sorted(body | {h}))
        return QhornQuery.build(self.n, universals, existentials)


class BruteForceLearner:
    """Candidate elimination over an explicit hypothesis space.

    Greedily asks the pool question that best splits the remaining
    candidates (maximizing the guaranteed elimination), so its worst case on
    an adversarial family matches the information-theoretic floor.  On
    Theorem 2.1's ``Uni ∧ Alias`` family every question splits 1-vs-rest and
    the learner degrades to 2^n − 1 questions — the intractability result.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        candidates: Sequence[QhornQuery],
        question_pool: Iterable[Question],
    ) -> None:
        self.oracle = oracle
        self.candidates = list(candidates)
        self.pool = list(question_pool)
        self.questions_asked = 0

    def learn(self) -> QhornQuery:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def steps(self) -> Steps:
        remaining = list(self.candidates)
        pool = list(self.pool)
        while len(remaining) > 1:
            best, best_score = None, -1
            for q in pool:
                yes = sum(1 for c in remaining if c.evaluate(q))
                score = min(yes, len(remaining) - yes)
                if score > best_score:
                    best, best_score = q, score
            if best is None or best_score == 0:
                raise RuntimeError(
                    "question pool cannot distinguish remaining candidates"
                )
            response = yield from ask_one(best)
            self.questions_asked += 1
            remaining = [c for c in remaining if c.evaluate(best) == response]
            pool.remove(best)
        if not remaining:
            raise RuntimeError("oracle inconsistent with candidate space")
        return remaining[0]


class HeadPairLearner:
    """Lemma 3.4's setting: learn which pair of variables heads the shared
    body ``C = X − {xi, xj}`` using at most ``c`` tuples per question.

    Strategy from the lemma's proof: only class-2 tuples (exactly one
    variable false) are informative, and a question ``{T_v : v ∈ H}`` is an
    answer iff both heads lie in ``H``.  Variables are split into blocks of
    ``⌊c/2⌋``; every block pair is probed, eliminating ``C(|H|, 2)`` pairs
    per non-answer — ``≈ n²/c²`` questions, matching the Ω(n²/c²) bound.
    """

    def __init__(self, oracle: MembershipOracle, max_tuples: int) -> None:
        if max_tuples < 2:
            raise ValueError("need at least two tuples per question")
        self.oracle = oracle
        self.n = oracle.n
        self.c = max_tuples
        self.questions_asked = 0

    def _ask_subset(self, vs: Sequence[int]) -> Steps:
        if len(vs) > self.c:
            raise AssertionError("question exceeds the tuple budget")
        top = bt.all_true(self.n)
        q = Question.of(self.n, [bt.with_false(top, [v]) for v in vs])
        self.questions_asked += 1
        return (yield from ask_one(q))

    def learn(self) -> tuple[int, int]:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def steps(self) -> Steps:
        block_size = max(1, self.c // 2)
        blocks = [
            list(range(i, min(i + block_size, self.n)))
            for i in range(0, self.n, block_size)
        ]
        probes = [b for b in blocks] if block_size >= 2 else []
        probes += [a + b for a, b in combinations(blocks, 2)]
        for probe in probes:
            if len(probe) < 2:
                continue
            if (yield from self._ask_subset(probe)):
                return (yield from self._pinpoint(probe))
        raise RuntimeError("no head pair found; oracle outside the family")

    def _pinpoint(self, candidates: Sequence[int]) -> Steps:
        for i, j in combinations(candidates, 2):
            if (yield from self._ask_subset([i, j])):
                return (i, j)
        raise RuntimeError("inconsistent oracle during pinpointing")
