"""Learning role-preserving qhorn queries (§3.2).

Two lattice-driven phases sit on top of the head-detection test of §3.1.1:

* **Universal Horn expressions** (§3.2.1, Thm 3.5): per head ``h``, search
  the body lattice (Fig. 5 — non-head variables, ``h`` fixed false, other
  heads fixed true).  A two-tuple question ``{1^n, t}`` is a non-answer iff
  the true variables of ``t`` contain a complete body, so one O(n) greedy
  minimization (Alg. 6) extracts a minimal body, and the cross-product
  *search roots* — one falsified variable per discovered body — enumerate
  the remaining incomparable bodies.  O(n^θ) questions per head.

* **Existential conjunctions** (§3.2.2, Thms 3.7/3.8): walk the full Boolean
  lattice top-to-bottom (Alg. 7).  The frontier plus the discovered
  distinguishing tuples always dominate every dominant conjunction of the
  normalized target; replacing a frontier tuple by its Horn-compliant
  children flips the question to a non-answer exactly when the tuple is
  distinguishing (Def. 3.5), and surviving children are pruned to a minimal
  set with binary search (Alg. 8).  O(kn lg n) questions.

The paper's optimization at the end of §3.2.2 is implemented: a frontier
tuple whose true set equals the (R3-closed) guarantee clause of a learned
universal expression is a known conjunction of the normalized query, so it
is recorded without spending a question and its (dominated) downset is never
searched.

Sans-io (DESIGN.md §2e): the learner body is the
:meth:`RolePreservingLearner.steps` generator; ``learn()`` drives it
against the construction oracle.  Each head's body search is an adaptive
chain, but the searches of different heads are independent, so they run
side by side (:func:`~repro.protocol.core.ask_parallel`) and share their
rounds; the conjunction walk stays one chain.  The body/conjunction
subroutines are step generators too, shared with the reviser
(:mod:`repro.learning.revision`, which keeps one search at a time);
white-box callers drive them with :func:`~repro.protocol.drivers.drive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import FrozenSet, Sequence

from repro.core import tuples as bt
from repro.core.expressions import UniversalHorn
from repro.core.normalize import r3_closure
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.lattice.boolean_lattice import BodyLattice, compliant_children
from repro.learning.questions import two_tuple_question, universal_head_question
from repro.learning.search import minimal_satisfying_subset_steps
from repro.oracle.base import MembershipOracle
from repro.protocol import core as protocol
from repro.protocol.core import Steps, ask_one, ask_round
from repro.protocol.drivers import drive

__all__ = [
    "RolePreservingResult",
    "RolePreservingLearner",
    "learn_role_preserving",
]


@dataclass
class RolePreservingResult:
    """Learned query plus the artifacts the proofs talk about."""

    n: int
    query: QhornQuery
    heads: frozenset[int]
    bodies_per_head: dict[int, list[FrozenSet[int]]]
    distinguishing_tuples: frozenset[int]

    @property
    def causal_density(self) -> int:
        return max(
            (len(bs) for bs in self.bodies_per_head.values()), default=0
        )


class RolePreservingLearner:
    """Exact learner for role-preserving qhorn targets.

    ``max_bodies_per_head`` bounds the body search (default ``n``), guarding
    against non-role-preserving oracles that would otherwise generate an
    unbounded stream of "new" bodies.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        max_bodies_per_head: int | None = None,
        prune: str = "binary",
        use_guarantee_shortcut: bool = True,
    ) -> None:
        if prune not in ("binary", "linear"):
            raise ValueError("prune must be 'binary' or 'linear'")
        self.oracle = oracle
        self.n = oracle.n
        self.max_bodies = max_bodies_per_head or self.n
        self.prune = prune
        self.use_guarantee_shortcut = use_guarantee_shortcut

    # ------------------------------------------------------------------
    def learn(self) -> RolePreservingResult:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def steps(self) -> Steps:
        """The learner as a sans-io step generator (DESIGN.md §2e)."""
        # Bulk round 1 (§3.1.1): all n head questions are fixed upfront.
        head_answers = yield from ask_round(
            [universal_head_question(self.n, v) for v in range(self.n)]
        )
        heads = [v for v, is_answer in enumerate(head_answers) if not is_answer]
        # Bulk round 2: one bodyless test per head — the {1^n, bottom}
        # questions depend only on the head set, not on each other.
        bottom_answers = yield from ask_round(
            [
                two_tuple_question(
                    self.n, BodyLattice(self.n, h, heads).bottom()
                )
                for h in heads
            ]
        )
        # The per-head body searches read only ``heads`` and their own
        # answers, so they run side by side and share rounds.
        searches = yield from protocol.ask_parallel(
            [
                self._learn_bodies_steps(
                    h, heads, bottom_is_answer=bottom_is_answer
                )
                for h, bottom_is_answer in zip(heads, bottom_answers)
            ]
        )
        bodies_per_head: dict[int, list[FrozenSet[int]]] = {}
        universals: list[UniversalHorn] = []
        for h, bodies in zip(heads, searches):
            bodies_per_head[h] = bodies
            universals.extend(
                UniversalHorn(head=h, body=body) for body in bodies
            )
        discovered = yield from self._learn_conjunctions_steps(universals)
        conjunctions = _maximal(
            {bt.true_set(t) for t in discovered}
        )
        query = QhornQuery.build(
            self.n,
            universals=[(sorted(u.body), u.head) for u in universals],
            existentials=[sorted(c) for c in conjunctions],
        )
        return RolePreservingResult(
            n=self.n,
            query=query,
            heads=frozenset(heads),
            bodies_per_head=bodies_per_head,
            distinguishing_tuples=frozenset(discovered),
        )

    # ------------------------------------------------------------------
    # §3.2.1 — universal Horn expressions
    # ------------------------------------------------------------------
    def _learn_bodies_steps(
        self,
        head: int,
        all_heads: Sequence[int],
        seed_bodies: Sequence[FrozenSet[int]] = (),
        probe_roots_first: bool = False,
        bottom_is_answer: bool | None = None,
    ) -> Steps:
        """Find all dominant bodies of ``head``.

        ``seed_bodies`` warm-starts the search with bodies already known to
        be minimal bodies of the target (used by the revision algorithm);
        only the cross-product roots beyond them are explored.  With
        ``probe_roots_first`` a single combined question over all current
        roots is asked first — if it is an answer, no further body exists
        and the search ends after one question (the A3 trick of §4).
        ``bottom_is_answer`` injects a pre-batched answer to the bodyless
        test (:meth:`steps` asks one round for all heads); when ``None``
        the question is asked here.  The root exploration itself stays
        sequential: each discovered body rewrites the pending root set, so
        batching roots would ask questions the sequential search never
        pays for.
        """
        lattice = BodyLattice(self.n, head, all_heads)
        # Bodyless test: {1^n, tuple with h and all non-heads false}.
        if bottom_is_answer is None:
            bottom_is_answer = yield from ask_one(
                two_tuple_question(self.n, lattice.bottom())
            )
        if not bottom_is_answer:
            return [frozenset()]
        non_heads = list(lattice.non_heads)
        bodies: list[FrozenSet[int]] = [frozenset(b) for b in seed_bodies]
        asked: set[frozenset[int]] = set()
        empty_exclusions: list[frozenset[int]] = []
        pending: list[frozenset[int]] = (
            [frozenset(choice) for choice in product(*bodies)]
            if bodies
            else [frozenset()]
        )
        if probe_roots_first and bodies and pending:
            combined = Question.of(
                self.n,
                [bt.all_true(self.n)]
                + [
                    lattice.embed([v for v in non_heads if v not in excl])
                    for excl in pending
                ],
            )
            if (yield from ask_one(combined)):
                return bodies  # no root hides a new body
        while pending:
            exclusion = pending.pop()
            if exclusion in asked:
                continue
            asked.add(exclusion)
            if any(e <= exclusion for e in empty_exclusions):
                continue  # a larger cover already contained no body
            cover = [v for v in non_heads if v not in exclusion]
            root = lattice.embed(cover)
            if (yield from ask_one(two_tuple_question(self.n, root))):
                empty_exclusions.append(exclusion)
                continue
            body = yield from self._minimize_body(lattice, cover)
            bodies.append(body)
            if len(bodies) >= self.max_bodies:
                break
            # Search roots (Thm 3.5): one falsified variable per known body.
            pending = [
                frozenset(choice)
                for choice in product(*bodies)
                if frozenset(choice) not in asked
            ]
        return bodies

    def _minimize_body(
        self, lattice: BodyLattice, cover: Sequence[int]
    ) -> Steps:
        """Alg. 6: greedily drop variables while the question stays a
        non-answer; what remains is one minimal (dominant) body."""
        excluded: set[int] = set()
        for x in cover:
            trial = [v for v in cover if v not in excluded and v != x]
            t = lattice.embed(trial)
            if not (yield from ask_one(two_tuple_question(self.n, t))):
                excluded.add(x)
        return frozenset(v for v in cover if v not in excluded)

    # ------------------------------------------------------------------
    # §3.2.2 — existential conjunctions
    # ------------------------------------------------------------------
    def _learn_conjunctions_steps(
        self,
        universals: Sequence[UniversalHorn],
        seed_discovered: Sequence[int] = (),
    ) -> Steps:
        """Top-down lattice walk for the dominant conjunctions (Alg. 7).

        ``seed_discovered`` pre-populates the discovered set with tuples
        already verified to be distinguishing for the target; regions they
        cover are pruned immediately, which is what makes revision cheap.
        """
        guarantee_closures = {
            r3_closure(u.variables, universals) for u in universals
        }
        discovered: list[int] = list(dict.fromkeys(seed_discovered))
        frontier: list[int] = [bt.all_true(self.n)]
        while frontier:
            next_frontier: list[int] = []
            for i, t in enumerate(frontier):
                if (
                    self.use_guarantee_shortcut
                    and bt.true_set(t) in guarantee_closures
                ):
                    # Known conjunction of the normalized query; its downset
                    # is dominated (end-of-§3.2.2 optimization).
                    discovered.append(t)
                    continue
                rest = frontier[i + 1 :]
                children = compliant_children(t, self.n, universals)
                fixed = set(discovered) | set(rest) | set(next_frontier)

                def is_answer(kept: Sequence[int], fixed=fixed) -> Steps:
                    return (
                        yield from ask_one(
                            Question.of(self.n, fixed | set(kept))
                        )
                    )

                if (yield from is_answer(children)):
                    if self.prune == "binary":
                        kept = yield from minimal_satisfying_subset_steps(
                            is_answer, children
                        )
                    else:
                        kept = yield from _linear_prune_steps(
                            is_answer, children
                        )
                    next_frontier.extend(
                        c for c in kept if c not in fixed
                    )
                else:
                    discovered.append(t)
            frontier = next_frontier
        return discovered


def _maximal(sets: set[frozenset[int]]) -> list[frozenset[int]]:
    return [s for s in sets if not any(s < other for other in sets)]


def _linear_prune_steps(is_answer, children: Sequence[int]) -> Steps:
    """§3.2.2's first pruning strategy, before the binary-search upgrade:
    "we remove one tuple from the question set and test its membership",
    putting it back when the question flips to a non-answer.  O(|children|)
    questions instead of O(|kept| lg |children|) — ablation E18."""
    kept = list(children)
    for c in list(children):
        trial = [x for x in kept if x != c]
        if (yield from is_answer(trial)):
            kept = trial
    return kept


def learn_role_preserving(
    oracle: MembershipOracle, max_bodies_per_head: int | None = None
) -> RolePreservingResult:
    """Convenience wrapper: learn a role-preserving target behind ``oracle``."""
    return RolePreservingLearner(oracle, max_bodies_per_head).learn()
