"""Membership oracles: the paper's model of the user (§2.1.2).

A membership question is an example object; the user classifies it as an
*answer* or a *non-answer* for their intended query.  Everything that asks
questions in this library — learners, verifiers, interactive sessions —
talks to a :class:`MembershipOracle`, so simulated users, counting wrappers,
noise injection, adversaries and real humans compose freely.

The protocol is one method (DESIGN.md §2b): an oracle labels a *round*
of questions with :meth:`~MembershipOracle.ask_many`, the answers
positionally aligned with the questions.  Batch boundaries are
unobservable: answering a list in one call, in consecutive chunks or one
question per call gives the same answers and leaves every wrapper in the
same state (statistics, noise draws, replay positions) — except the
per-call round tally of :class:`~repro.oracle.counting.CountingOracle`,
which counts calls by design.  A caller that needs one answer writes
``oracle.ask_many([q])[0]``; a wrapper never forwards an empty batch.

The equivalence is promised for batches that complete.  When answering
*raises* (exhausted replay, width mismatch), a batch is atomic at each
wrapper: no per-question statistics or transcript entries are recorded
for the failed call (inner state, e.g. a replay position, may have
advanced).  Error paths abort the interaction; they are not part of the
question-count cost model.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.core.query import QhornQuery
from repro.core.tuples import Question

__all__ = [
    "MembershipOracle",
    "QueryOracle",
    "FunctionOracle",
]


@runtime_checkable
class MembershipOracle(Protocol):
    """Anything that can label membership questions."""

    n: int

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Label a round of questions: ``True`` for *answer*, ``False``
        for *non-answer*, positionally aligned with ``questions``."""
        ...


class QueryOracle:
    """The ideal user: labels questions with a hidden target query.

    This is the ground-truth oracle used by exact-identification experiments;
    the learner never inspects :attr:`target`, only :meth:`ask_many`.
    """

    def __init__(self, target: QhornQuery) -> None:
        self.target = target
        self.n = target.n

    def _check(self, question: Question) -> None:
        if question.n != self.n:
            raise ValueError(
                f"question over n={question.n} variables, oracle has n={self.n}"
            )

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Mask-native batch answering: one compile, one evaluation per
        *distinct* question.

        The target compiles once (memoized) and each distinct question's
        mask set is evaluated through the compiled form exactly once;
        duplicate questions reuse the answer.  ``CompiledQuery.evaluate``
        agrees with ``QhornQuery.evaluate`` by the batch-evaluation
        contract (DESIGN.md §2), so each response is the target's
        reference label for its question.
        """
        compiled = self.target.compile()
        evaluate = compiled.evaluate
        answers: dict[Question, bool] = {}
        get = answers.get
        out: list[bool] = []
        for q in questions:
            cached = get(q)
            if cached is None:
                self._check(q)  # width-checked once per distinct question
                cached = answers[q] = evaluate(q.tuples)
            out.append(cached)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryOracle({self.target.shorthand()})"


class FunctionOracle:
    """Adapts a plain callable ``Question -> bool`` to the oracle protocol."""

    def __init__(self, n: int, fn) -> None:
        self.n = n
        self._fn = fn

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Sequential application: a plain callable has no batch form."""
        return [bool(self._fn(q)) for q in questions]
