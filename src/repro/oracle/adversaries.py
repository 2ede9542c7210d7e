"""Adversarial oracles: executable versions of the lower-bound proofs.

Theorem 2.1, Lemma 3.4 and Theorem 3.6 all argue the same way: exhibit a
query family such that any membership question eliminates almost no
candidates, then let an adversary answer so as to keep the candidate set
large.  :class:`CandidateEliminationAdversary` implements that adversary
generically — it maintains the set of still-consistent candidate queries and
always answers with the majority label, eliminating only the minority.

The benches replay the specific families (``Uni ∧ Alias`` for Thm 2.1, head
pairs for Lemma 3.4, overlapping bodies for Thm 3.6) against this adversary
and report how slowly the candidate set shrinks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.query import QhornQuery
from repro.core.tuples import Question

__all__ = ["CandidateEliminationAdversary", "max_elimination"]


class CandidateEliminationAdversary:
    """Answers membership questions to keep as many candidates alive as
    possible.

    Ties favour *non-answer*, matching the paper's adversary ("Consider an
    adversary who always responds 'non-answer'").  The adversary is a valid
    membership oracle: its answers are always consistent with at least one
    remaining candidate, so a sound exact learner can never terminate before
    the candidate set is a singleton.
    """

    def __init__(self, candidates: Iterable[QhornQuery]) -> None:
        self.candidates: list[QhornQuery] = list(candidates)
        if not self.candidates:
            raise ValueError("adversary needs at least one candidate")
        ns = {q.n for q in self.candidates}
        if len(ns) != 1:
            raise ValueError("candidates must share a variable count")
        (self.n,) = ns
        self.questions_asked = 0

    @property
    def remaining(self) -> int:
        return len(self.candidates)

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """The adversary's answers are history-dependent by construction
        (each shrinks the candidate set), so the batch is processed
        strictly in order — batching never weakens the adversary."""
        answers: list[bool] = []
        for question in questions:
            self.questions_asked += 1
            yes: list[QhornQuery] = []
            no: list[QhornQuery] = []
            for q in self.candidates:
                (yes if q.evaluate(question) else no).append(q)
            answer = len(no) < len(yes)
            self.candidates = yes if answer else no
            answers.append(answer)
        return answers

    def is_identified(self) -> bool:
        return len(self.candidates) == 1


def max_elimination(
    candidates: Sequence[QhornQuery], questions: Iterable[Question]
) -> int:
    """The largest number of candidates any single question can eliminate
    when the adversary answers with the majority label.

    Exhausting ``questions`` over *all* objects for small ``n`` validates the
    counting step of the lower-bound proofs: e.g. for Theorem 2.1's family
    every question eliminates at most one candidate.
    """
    worst = 0
    for q in questions:
        yes = sum(1 for c in candidates if c.evaluate(q))
        worst = max(worst, min(yes, len(candidates) - yes))
    return worst
