"""The synchronous driver: answer a sans-io learner's rounds (DESIGN.md §2e).

:func:`answer_round` answers one round with one ``oracle.ask_many`` call
(or, for expression questions, one expression-oracle call per question);
:func:`drive` runs a step generator to completion that way.  The
learners' public ``learn()`` methods are ``drive(self.steps(),
self.oracle)``.
"""

from __future__ import annotations

from typing import Any

from repro.oracle.expression import ExpressionQuestion
from repro.protocol.core import ProtocolError, Round, Steps

__all__ = ["answer_round", "drive"]


def answer_round(oracle: Any, round_: Round) -> list[bool]:
    """Answer one round through ``oracle``.

    A membership round is one ``oracle.ask_many`` call; an
    expression-question round dispatches onto the oracle's
    ``requires_conjunction`` / ``requires_implication`` methods, one call
    per question.
    """
    questions = round_.questions
    if isinstance(questions[0], ExpressionQuestion):
        return [q.answer_with(oracle) for q in questions]
    return oracle.ask_many(questions)


def drive(steps: Steps, oracle: Any) -> Any:
    """Run a step generator to completion against ``oracle``, one
    :func:`answer_round` per round, and return its result.

    The oracle is the user, so what it returns is checked: a round must
    get one answer per question, and each answer is coerced to ``bool``.
    A yield that is not a :class:`Round` is a :class:`ProtocolError`.
    """
    answers: list[bool] | None = None
    while True:
        try:
            round_ = steps.send(answers)
        except StopIteration as stop:
            return stop.value
        if not isinstance(round_, Round):
            raise ProtocolError(
                f"step generator yielded {type(round_).__name__}, "
                "expected a Round"
            )
        answers = [bool(a) for a in answer_round(oracle, round_)]
        if len(answers) != len(round_.questions):
            raise ProtocolError(
                f"round of {len(round_.questions)} questions got "
                f"{len(answers)} answers"
            )
