"""Counting and recording wrappers around membership oracles.

The paper's complexity results are stated in *number of membership questions*
and *tuples per question* (§2.1.2: question generation must stay polynomial,
which entails polynomially many tuples per question).  The wrappers here
measure both, so every theorem becomes a measurable quantity.

With the round protocol (DESIGN.md §2b) a third quantity matters: how
many *rounds* of interaction the questions arrived in.  A batch of N
questions through :meth:`CountingOracle.ask_many` counts as N questions
(the paper's cost model is untouched) but only one round; the per-round
statistics quantify how much latency the batching saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.tuples import Question
from repro.oracle.base import MembershipOracle

__all__ = ["QuestionStats", "CountingOracle", "RecordingOracle"]


@dataclass
class QuestionStats:
    """Aggregate statistics over the questions asked through an oracle."""

    questions: int = 0
    tuples: int = 0
    max_tuples: int = 0
    answers: int = 0
    non_answers: int = 0
    tuples_histogram: dict[int, int] = field(default_factory=dict)
    #: Interaction rounds: one per non-empty ``ask_many`` batch.
    rounds: int = 0
    #: Size of the largest single batch seen.
    largest_batch: int = 0

    def record(self, question: Question, response: bool) -> None:
        self.questions += 1
        size = question.size
        self.tuples += size
        self.max_tuples = max(self.max_tuples, size)
        self.tuples_histogram[size] = self.tuples_histogram.get(size, 0) + 1
        if response:
            self.answers += 1
        else:
            self.non_answers += 1

    def record_round(self, batch_size: int) -> None:
        """Tally one interaction round of ``batch_size`` questions."""
        self.rounds += 1
        self.largest_batch = max(self.largest_batch, batch_size)

    @property
    def mean_tuples(self) -> float:
        return self.tuples / self.questions if self.questions else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean questions per interaction round."""
        return self.questions / self.rounds if self.rounds else 0.0


class CountingOracle:
    """Wraps an oracle and tallies every question asked through it."""

    def __init__(self, inner: MembershipOracle) -> None:
        self.inner = inner
        self.n = inner.n
        self.stats = QuestionStats()

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Forward the batch, then count each question individually.

        Question/tuple/answer statistics do not depend on how a list is
        split into batches; the round bookkeeping counts one round per
        non-empty batch.
        """
        questions = list(questions)
        if not questions:
            return []
        responses = self.inner.ask_many(questions)
        for question, response in zip(questions, responses):
            self.stats.record(question, response)
        self.stats.record_round(len(questions))
        return responses

    @property
    def questions_asked(self) -> int:
        return self.stats.questions

    def reset(self) -> None:
        self.stats = QuestionStats()


class RecordingOracle:
    """Wraps an oracle and keeps the full (question, response) transcript.

    The transcript powers the interactive layer's response-correction replay
    (§5 "Noisy Users"): a learner restarted against a
    :class:`RecordingOracle` transcript re-receives identical labels up to
    the corrected point.
    """

    def __init__(self, inner: MembershipOracle) -> None:
        self.inner = inner
        self.n = inner.n
        self.transcript: list[tuple[Question, bool]] = []

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Forward the batch and append each exchange in question order."""
        questions = list(questions)
        if not questions:
            return []
        responses = self.inner.ask_many(questions)
        self.transcript.extend(zip(questions, responses))
        return responses

    def responses(self) -> list[bool]:
        return [r for _, r in self.transcript]
