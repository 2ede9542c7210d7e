"""Query revision (§6 future work, implemented).

"Given a query which is close to the user's intended query, our goal is to
determine the intended query through few membership questions — polynomial
in the distance between the given query and the intended query."

The reviser trusts the given query wherever the user confirms it and
relearns only the disagreeing parts:

1. **Heads.**  One A4-style probe over all non-heads detects whether the
   intent has *new* head variables (binary-searched out only if so); one
   head test per existing head confirms or drops it.
2. **Universal bodies.**  Each given dominant body is confirmed as a
   minimal body of the intent with two questions (its N2 and A2 from the
   verification set); a failed A2 shrinks the body in place.  One combined
   all-roots probe then certifies that no incomparable body was missed —
   the full root enumeration runs only when that probe fails.
3. **Conjunctions.**  After an A1 probe, each given distinguishing tuple is
   confirmed with one children-replacement question; the lattice walk then
   runs with the confirmed tuples pre-discovered, so regions the given
   query already explains are pruned immediately.

When the given query equals the intent, the reviser spends O(n + k)
questions (vs O(n^{θ+1} + kn lg n) to learn from scratch); the cost grows
with the revision distance of §6 — experiment E15 measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.core import tuples as bt
from repro.core.normalize import canonicalize, r3_closure
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.lattice.boolean_lattice import BodyLattice, compliant_children
from repro.learning.questions import universal_head_question
from repro.learning.role_preserving import RolePreservingLearner
from repro.learning.search import find_all_batch_steps
from repro.oracle.base import MembershipOracle
from repro.protocol.core import Steps, ask_one, ask_round
from repro.protocol.drivers import drive

__all__ = ["RevisionResult", "QueryReviser", "revise_query"]


@dataclass
class RevisionResult:
    """Outcome of a revision: the corrected query plus a repair log."""

    query: QhornQuery
    changed: bool
    repairs: list[str] = field(default_factory=list)


class QueryReviser:
    """Revises a role-preserving query against a membership oracle."""

    def __init__(self, given: QhornQuery, oracle: MembershipOracle) -> None:
        if not given.is_role_preserving():
            raise ValueError("revision is defined for role-preserving qhorn")
        if given.n != oracle.n:
            raise ValueError("query and oracle disagree on n")
        self.given = canonicalize(given)
        self.oracle = oracle
        self.n = given.n
        self.repairs: list[str] = []
        self._learner = RolePreservingLearner(oracle)

    # ------------------------------------------------------------------
    def revise(self) -> RevisionResult:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def learn(self) -> RevisionResult:
        """Learner-shaped alias for :meth:`revise`, so revisers drop into
        sessions and drivers anywhere a learner does."""
        return self.revise()

    def steps(self) -> Steps:
        """The reviser as a sans-io step generator (DESIGN.md §2e)."""
        heads = yield from self._revise_heads()
        universals = yield from self._revise_universals(heads)
        conjunctions = yield from self._revise_conjunctions(universals)
        query = QhornQuery.build(
            self.n,
            universals=[(sorted(u.body), u.head) for u in universals],
            existentials=[sorted(c) for c in conjunctions],
        )
        changed = canonicalize(query) != self.given
        if not changed:
            self.repairs.append("confirmed: the given query was correct")
        return RevisionResult(query=query, changed=changed, repairs=self.repairs)

    # ------------------------------------------------------------------
    # Step 1 — heads
    # ------------------------------------------------------------------
    def _revise_heads(self) -> Steps:
        given_heads = sorted({u.head for u in self.given.universals})
        heads: list[int] = []
        # One bulk round: the per-given-head confirmation questions are
        # fixed upfront and independent of each other.
        confirmations = yield from ask_round(
            [universal_head_question(self.n, h) for h in given_heads]
        )
        for h, is_answer in zip(given_heads, confirmations):
            if not is_answer:
                heads.append(h)
            else:
                self.repairs.append(f"dropped head x{h + 1}")
        non_heads = [v for v in range(self.n) if v not in set(given_heads)]
        if non_heads:
            top = bt.all_true(self.n)
            probe = Question.of(
                self.n,
                [top] + [bt.with_false(top, [v]) for v in non_heads],
            )
            if not (yield from ask_one(probe)):
                # Some non-head of the given query heads an expression in
                # the intent: binary-search all of them out (A4 refinement),
                # batching each FindAll level into one round.
                def contains_head_each(subsets) -> Steps:
                    answers = yield from ask_round(
                        [
                            Question.of(
                                self.n,
                                [top]
                                + [bt.with_false(top, [v]) for v in vs],
                            )
                            for vs in subsets
                        ]
                    )
                    return [not a for a in answers]

                new_heads = yield from find_all_batch_steps(
                    contains_head_each, non_heads
                )
                for h in new_heads:
                    self.repairs.append(f"added head x{h + 1}")
                heads.extend(new_heads)
        return sorted(heads)

    # ------------------------------------------------------------------
    # Step 2 — universal bodies
    # ------------------------------------------------------------------
    def _given_bodies(self, head: int) -> list[FrozenSet[int]]:
        return sorted(
            (u.body for u in self.given.universals if u.head == head),
            key=sorted,
        )

    def _revise_universals(self, heads: list[int]) -> Steps:
        from repro.core.expressions import UniversalHorn

        universals: list[UniversalHorn] = []
        for h in heads:
            verified: list[FrozenSet[int]] = []
            candidates = [
                b
                for b in self._given_bodies(h)
                if b and b <= frozenset(v for v in range(self.n)
                                        if v not in set(heads))
            ]
            lattice = BodyLattice(self.n, h, heads)
            for body in candidates:
                outcome = yield from self._check_body(lattice, body)
                if outcome is None:
                    from repro.core.expressions import var_names

                    self.repairs.append(
                        f"dropped body {var_names(body)} of x{h + 1}"
                    )
                    continue
                if outcome != body:
                    self.repairs.append(
                        f"shrank a body of x{h + 1} to "
                        f"{sorted(v + 1 for v in outcome)}"
                    )
                if outcome not in verified:
                    verified.append(outcome)
            bodies = yield from self._learner._learn_bodies_steps(
                h, heads, seed_bodies=verified, probe_roots_first=True
            )
            if len(bodies) > len(verified) and bodies != [frozenset()]:
                self.repairs.append(
                    f"found {len(bodies) - len(verified)} new bodies for "
                    f"x{h + 1}"
                )
            for b in bodies:
                universals.append(UniversalHorn(head=h, body=b))
        # keep only dominant expressions (a shrink may dominate a sibling)
        probe = QhornQuery(n=self.n, universals=frozenset(universals))
        return sorted(canonicalize(probe).universals)

    def _check_body(
        self, lattice: BodyLattice, body: FrozenSet[int]
    ) -> Steps:
        """Confirm ``body`` as a minimal intent body with two questions;
        shrink it in place when only a subset is required; ``None`` when
        the intent has no body inside it at all."""
        top = bt.all_true(self.n)
        u_tuple = lattice.embed(body)
        # N2: a non-answer means some intent body lies within `body`.
        if (yield from ask_one(Question.of(self.n, [top, u_tuple]))):
            return None
        # A2: an answer means no intent body is a strict subset.
        children = [
            lattice.embed([v for v in body if v != b]) for b in sorted(body)
        ]
        if (yield from ask_one(Question.of(self.n, [top, *children]))):
            return body
        # Shrink: classic greedy minimization restricted to `body` (Alg. 6).
        kept = list(sorted(body))
        for x in sorted(body):
            trial = [v for v in kept if v != x]
            t = lattice.embed(trial)
            if not (yield from ask_one(Question.of(self.n, [top, t]))):
                kept = trial
        return frozenset(kept)

    # ------------------------------------------------------------------
    # Step 3 — conjunctions
    # ------------------------------------------------------------------
    def _revise_conjunctions(self, universals) -> Steps:
        # Re-close the given conjunctions under the *revised* universals.
        candidates = sorted(
            {
                bt.mask_of(r3_closure(c, universals))
                for c in self.given.conjunctions
            }
        )
        verified: list[int] = []
        if candidates and (
            yield from ask_one(Question.of(self.n, candidates))
        ):
            # A1 passed: every intent conjunction is covered by some
            # candidate, so a children-replacement question isolates each.
            # The per-candidate questions are fixed once A1 passes — one
            # bulk round.
            replacements = [
                Question.of(
                    self.n,
                    [c for c in candidates if c != t]
                    + compliant_children(t, self.n, universals),
                )
                for t in candidates
            ]
            replacement_answers = yield from ask_round(replacements)
            for t, is_answer in zip(candidates, replacement_answers):
                if not is_answer:
                    verified.append(t)
        dropped = len(candidates) - len(verified)
        if dropped:
            self.repairs.append(
                f"re-deriving {dropped} unconfirmed conjunction(s)"
            )
        discovered = yield from self._learner._learn_conjunctions_steps(
            list(universals), seed_discovered=verified
        )
        conjunctions = {bt.true_set(t) for t in discovered}
        return [
            c
            for c in conjunctions
            if not any(c < other for other in conjunctions)
        ]


def revise_query(
    given: QhornQuery, oracle: MembershipOracle
) -> RevisionResult:
    """Revise ``given`` against the user behind ``oracle`` (§6)."""
    return QueryReviser(given, oracle).revise()
