"""Version-space tracking: the UI view of "what could you still mean?".

DataPlay-style interfaces benefit from showing the user how their answers
narrow the space of possible intents (§1's motivation).  A
:class:`VersionSpace` maintains the set of class members consistent with
the responses so far — feasible exactly for the enumerable classes
(role-preserving qhorn at n ≤ 3) and by sampling beyond.

It also implements the information-optimal *next question* (the object
whose answer halves the remaining candidates), which lets E20 measure how
close the paper's structured learners come to the information-theoretic
floor on the enumerable class.

Candidate filtering is mask-native: every evaluation goes through the
candidates' :class:`~repro.core.query.CompiledQuery` forms (memoized per
query), and :meth:`VersionSpace.record_many` consumes a whole response
batch — e.g. a verification set answered in one ``ask_many`` round — in
a single filtering pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.normalize import canonicalize, enumerate_objects
from repro.core.generators import enumerate_role_preserving
from repro.core.query import QhornQuery
from repro.core.tuples import Question

__all__ = ["VersionSpace", "SplitQuality"]


@dataclass(frozen=True)
class SplitQuality:
    """How a candidate question would divide the current version space."""

    question: Question
    answers: int
    non_answers: int

    @property
    def guaranteed_elimination(self) -> int:
        return min(self.answers, self.non_answers)

    @property
    def entropy_bits(self) -> float:
        total = self.answers + self.non_answers
        if not self.answers or not self.non_answers:
            return 0.0
        pa = self.answers / total
        return -(pa * math.log2(pa) + (1 - pa) * math.log2(1 - pa))


@dataclass
class VersionSpace:
    """The set of hypotheses consistent with the responses so far."""

    candidates: list[QhornQuery]
    history: list[tuple[Question, bool]] = field(default_factory=list)

    @classmethod
    def full_role_preserving(cls, n: int) -> "VersionSpace":
        """Start from every semantically distinct role-preserving query on
        ``n`` variables (n ≤ 3)."""
        return cls(candidates=list(enumerate_role_preserving(n)))

    @property
    def n(self) -> int:
        if not self.candidates:
            raise ValueError("version space is empty")
        return self.candidates[0].n

    @property
    def size(self) -> int:
        return len(self.candidates)

    def record(self, question: Question, response: bool) -> int:
        """Filter by one response; returns how many candidates died."""
        return self.record_many([question], [response])

    def record_many(
        self, questions: Sequence[Question], responses: Sequence[bool]
    ) -> int:
        """Filter by a whole response batch in one pass; returns how many
        candidates died.

        Equivalent to recording each (question, response) pair in order —
        consistency with a conjunction of constraints is order-independent
        — but each candidate compiles once and every question's mask set
        is shared across candidates.
        """
        if len(questions) != len(responses):
            raise ValueError("questions and responses must align")
        before = len(self.candidates)
        pairs = [(q.tuples, r) for q, r in zip(questions, responses)]
        survivors = []
        for c in self.candidates:
            compiled = c.compile()
            if all(compiled.evaluate(masks) == r for masks, r in pairs):
                survivors.append(c)
        self.candidates = survivors
        self.history.extend(zip(questions, responses))
        if not self.candidates:
            raise ValueError(
                "responses are inconsistent with every class member"
            )
        return before - len(self.candidates)

    def identified(self) -> QhornQuery | None:
        """The unique remaining query, if the space has converged."""
        forms = {canonicalize(c) for c in self.candidates}
        if len(forms) == 1:
            return self.candidates[0]
        return None

    def split_quality(self, question: Question) -> SplitQuality:
        masks = question.tuples
        yes = sum(1 for c in self.candidates if c.compile().evaluate(masks))
        return SplitQuality(
            question=question,
            answers=yes,
            non_answers=len(self.candidates) - yes,
        )

    def best_question(self) -> SplitQuality | None:
        """The object splitting the remaining candidates most evenly.

        Scans all ``2^(2^n)`` objects, so only n ≤ 3 is practical; returns
        ``None`` once no question distinguishes the survivors (they are all
        equivalent).
        """
        best: SplitQuality | None = None
        for obj in enumerate_objects(self.n, include_empty=True):
            q = Question.of(self.n, obj)
            split = self.split_quality(q)
            if split.guaranteed_elimination == 0:
                continue
            if (
                best is None
                or split.guaranteed_elimination > best.guaranteed_elimination
            ):
                best = split
        return best

    def run_to_identification(self, oracle, max_questions: int = 64):
        """Drive the optimal-split strategy against an oracle until the
        space converges; returns (query, questions_asked)."""
        asked = 0
        while self.identified() is None:
            if asked >= max_questions:
                raise RuntimeError("question budget exhausted")
            split = self.best_question()
            if split is None:
                break
            self.record(split.question, oracle.ask_many([split.question])[0])
            asked += 1
        result = self.identified()
        if result is None:  # pragma: no cover - defensive
            raise RuntimeError("version space failed to converge")
        return result, asked
