"""Learning qhorn-1 queries with O(n lg n) membership questions (§3.1).

The learner decomposes query learning into the paper's three tasks:

1. **Classify variables** into universal head variables vs existential
   variables with one ``{1^n, only-x-false}`` question each (§3.1.1).
2. **Learn universal bodies** (§3.1.2, Algs. 1–3): for each universal head,
   first binary-search the already-discovered bodies (a shared body costs
   one extra O(lg n) search), otherwise ``FindAll`` its body variables among
   the existential variables with universal dependence questions (Def. 3.1).
3. **Learn existential Horn expressions** (§3.1.3, Algs. 4–5): group the
   remaining variables via existential independence questions (Def. 3.2),
   pinpoint head variables with matrix questions (Def. 3.3, Lemma 3.3), and
   classify the rest pairwise.

Deviation from the paper (documented in DESIGN.md): the paper's convention
has every proposition appear in the query.  We additionally disambiguate a
fully independent variable ``e`` between ``∃e`` and "unconstrained" with one
single-tuple question, adding at most ``n`` questions overall and keeping
the O(n lg n) bound.

The learner asks O(n lg n) questions with at most O(n) tuples each and runs
in polynomial time (Theorem 3.1).

The pipeline is *sans-io and batch-first* (DESIGN.md §2b/§2e): the learner
body is the :meth:`Qhorn1Learner.steps` generator, which yields
:class:`~repro.protocol.core.Round` objects — every phase whose question
set does not depend on its own answers is one round (the universal-head
scan is one batch of ``n`` questions, each FindAll of dependence probes
batches level by level via
:func:`~repro.learning.search.find_all_batch_steps`, and the pairwise
head-splitting classification is one batch per group).  The adaptive
binary-search chains (*Find*, *GetHead*) ask one question per round, but
two kinds of work decide no later question and so share rounds with the
main search (:func:`~repro.protocol.core.ask_parallel`): *Find*'s
narrowing once its root question came back true, and a lone variable's
single-tuple question.  :meth:`Qhorn1Learner.learn` drives those steps
against the construction oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import FrozenSet, Sequence

from repro.core.query import QhornQuery
from repro.learning.questions import (
    existential_independence_question,
    matrix_question,
    single_false_question,
    universal_dependence_question,
    universal_head_question,
)
from repro.learning.search import (
    find_all_batch_steps,
    minimal_prefix_steps,
    narrow_steps,
)
from repro.oracle.base import MembershipOracle
from repro.protocol import core as protocol
from repro.protocol.core import Fork, Steps, ask_one, ask_round
from repro.protocol.drivers import drive

__all__ = ["Qhorn1Group", "Qhorn1Result", "Qhorn1Learner", "learn_qhorn1"]


@dataclass
class Qhorn1Group:
    """One part of the learned variable partition (Fig. 2's terminology):
    a shared body with its universally / existentially quantified heads."""

    body: FrozenSet[int] = frozenset()
    universal_heads: set[int] = field(default_factory=set)
    existential_heads: set[int] = field(default_factory=set)


@dataclass
class Qhorn1Result:
    """Outcome of learning: the query plus its structural decomposition."""

    n: int
    query: QhornQuery
    groups: list[Qhorn1Group]
    universal_heads: frozenset[int]
    unconstrained: frozenset[int]


class Qhorn1Learner:
    """Exact learner for qhorn-1 targets behind a membership oracle.

    ``use_shared_body_shortcut`` controls Alg. 1's first step (binary search
    over already-discovered bodies before a fresh ``FindAll``).  Disabling
    it re-derives every shared body from scratch — the ablation of
    Lemma 3.2's "at most 1·lg n questions per additional head" claim.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        use_shared_body_shortcut: bool = True,
    ) -> None:
        self.oracle = oracle
        self.n = oracle.n
        self.use_shared_body_shortcut = use_shared_body_shortcut

    # -- question predicates (step generators) ------------------------------
    def _depends_universally(self, head: int, vs: Sequence[int]) -> Steps:
        """Answer to a universal dependence question = body intersects vs."""
        return (
            yield from ask_one(
                universal_dependence_question(self.n, head, vs)
            )
        )

    def _depends_universally_each(
        self, head: int, subsets: Sequence[Sequence[int]]
    ) -> Steps:
        """One round of universal dependence questions for ``head``."""
        return (
            yield from ask_round(
                [
                    universal_dependence_question(self.n, head, vs)
                    for vs in subsets
                ]
            )
        )

    def _depends_existentially(self, x: int, vs: Sequence[int]) -> Steps:
        """Non-answer to an independence question = some conjunction
        contains ``x`` and intersects ``vs``."""
        answer = yield from ask_one(
            existential_independence_question(self.n, [x], vs)
        )
        return not answer

    def _depends_existentially_each(
        self, x: int, subsets: Sequence[Sequence[int]]
    ) -> Steps:
        """One round of existential independence questions around ``x``."""
        answers = yield from ask_round(
            [
                existential_independence_question(self.n, [x], vs)
                for vs in subsets
            ]
        )
        return [not a for a in answers]

    # -- learning tasks -----------------------------------------------------
    def learn(self) -> Qhorn1Result:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def steps(self) -> Steps:
        """The learner as a sans-io step generator (DESIGN.md §2e)."""
        # Task 1 (§3.1.1): the universal-head scan is one bulk round — the
        # n head questions are fixed upfront and independent of each other.
        head_answers = yield from ask_round(
            [universal_head_question(self.n, v) for v in range(self.n)]
        )
        universal_heads = [
            v for v, is_answer in enumerate(head_answers) if not is_answer
        ]
        groups: dict[FrozenSet[int], Qhorn1Group] = {}
        unconstrained: set[int] = set()
        # Called through the module: that one name decides how branches
        # share rounds, for both served learners.
        yield from protocol.ask_parallel(
            [self._search_steps(universal_heads, groups, unconstrained)]
        )
        return Qhorn1Result(
            n=self.n,
            query=self._assemble(groups),
            groups=list(groups.values()),
            universal_heads=frozenset(universal_heads),
            unconstrained=frozenset(unconstrained),
        )

    def _search_steps(
        self,
        universal_heads: Sequence[int],
        groups: dict[FrozenSet[int], Qhorn1Group],
        unconstrained: set[int],
    ) -> Steps:
        """Tasks 2 and 3, filling ``groups`` and ``unconstrained``.

        Runs as the main branch of :meth:`steps` and hands off
        (:class:`~repro.protocol.core.Fork`) the work whose answers
        change neither ``known_bodies`` nor ``processed``, so no later
        question: *Find*'s narrowing once its root question came back
        true (the body it picks is already known), and a lone variable's
        single-tuple question.  A handed-off head joins its group when its
        branch finishes.
        """
        existential_vars = [
            v for v in range(self.n) if v not in set(universal_heads)
        ]
        known_bodies: list[FrozenSet[int]] = []

        def group_for(body: FrozenSet[int]) -> Qhorn1Group:
            if body not in groups:
                groups[body] = Qhorn1Group(body=body)
                if body:
                    known_bodies.append(body)
            return groups[body]

        def in_known_body(x: int, universal: bool) -> Steps:
            """Alg. 2 (*Find*) over the known bodies' variables: is ``x``
            a head of a known body?  The root question decides what comes
            next, so it is asked here; the narrowing to the body is
            handed off."""
            known_vars = sorted({v for b in known_bodies for v in b})
            if not known_vars:
                return False
            depends = partial(
                self._depends_universally
                if universal
                else self._depends_existentially,
                x,
            )
            if not (yield from depends(known_vars)):
                return False
            bodies = list(known_bodies)

            def narrow() -> Steps:
                b = yield from narrow_steps(depends, known_vars)
                g = group_for(next(body for body in bodies if b in body))
                (g.universal_heads if universal else g.existential_heads).add(x)

            yield Fork(narrow())
            return True

        def lone(e: int) -> Steps:
            """``∃e`` or unconstrained: one single-tuple question."""
            if (yield from ask_one(single_false_question(self.n, e))):
                unconstrained.add(e)
            else:
                group_for(frozenset()).existential_heads.add(e)

        # Task 2 (Alg. 1): bodies of universal head variables.  The
        # shared-body shortcut first searches the known bodies; the fresh
        # body's FindAll batches level by level.
        for h in universal_heads:
            candidates = existential_vars
            if self.use_shared_body_shortcut:
                if (yield from in_known_body(h, universal=True)):
                    continue
                known = {v for b in known_bodies for v in b}
                candidates = [v for v in existential_vars if v not in known]
            body = yield from find_all_batch_steps(
                partial(self._depends_universally_each, h), candidates
            )
            group_for(frozenset(body)).universal_heads.add(h)

        # Task 3 (Alg. 4): existential Horn expressions.
        universal_body_vars = {v for b in known_bodies for v in b}
        available = [
            v for v in existential_vars if v not in universal_body_vars
        ]
        processed: set[int] = set()
        for e in available:
            if e in processed:
                continue
            processed.add(e)
            if (yield from in_known_body(e, universal=False)):
                continue
            remaining = [
                v for v in available if v not in processed
            ]
            dependents = yield from find_all_batch_steps(
                partial(self._depends_existentially_each, e),
                remaining,
            )
            if not dependents:
                yield Fork(lone(e))
                continue
            processed.update(dependents)
            heads = yield from self._split_heads(e, sorted(dependents))
            if heads:
                body = frozenset(dependents) - heads | {e}
                g = group_for(frozenset(body))
                g.existential_heads.update(heads)
            else:
                # At most one head among the dependents: treating ``e`` as
                # the head of body D yields the same conjunction (Lemma 3.3
                # discussion), so the learned query is still exact.
                g = group_for(frozenset(dependents))
                g.existential_heads.add(e)

    # -- subroutines ---------------------------------------------------------
    def _split_heads(self, e: int, dependents: list[int]) -> Steps:
        """Alg. 5 (*GetHead*) + pairwise classification (Lemma 3.3).

        Returns the existential heads among ``dependents`` — empty when the
        matrix question certifies at most one head is present.
        """

        def matrix_is_answer(vs: Sequence[int]) -> Steps:
            return (yield from ask_one(matrix_question(self.n, vs)))

        prefix = yield from minimal_prefix_steps(matrix_is_answer, dependents)
        if prefix is None:
            return frozenset()
        h1 = prefix[-1]
        heads = {h1}
        # Pairwise classification against h1 (Lemma 3.3): the |D|-1
        # questions are fixed once h1 is known — one bulk round.
        others = [d for d in dependents if d != h1]
        depends_each = yield from self._depends_existentially_each(
            h1, [[d] for d in others]
        )
        for d, depends in zip(others, depends_each):
            if not depends:
                heads.add(d)
        return frozenset(heads)

    def _assemble(
        self, groups: dict[FrozenSet[int], Qhorn1Group]
    ) -> QhornQuery:
        universals: list[tuple[Sequence[int], int]] = []
        existentials: list[Sequence[int]] = []
        for body, g in groups.items():
            for h in sorted(g.universal_heads):
                universals.append((sorted(body), h))
            for h in sorted(g.existential_heads):
                existentials.append(sorted(body | {h}))
        return QhornQuery.build(self.n, universals, existentials)


def learn_qhorn1(oracle: MembershipOracle) -> Qhorn1Result:
    """Convenience wrapper: learn a qhorn-1 target behind ``oracle``."""
    return Qhorn1Learner(oracle).learn()
