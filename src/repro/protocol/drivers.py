"""The synchronous driver: answer a sans-io learner's rounds (DESIGN.md §2e).

:func:`answer_round` answers one round with one ``oracle.ask_many`` call
(or, for expression questions, one expression-oracle call per question);
:func:`drive` runs a learner to completion that way.  The learners'
public ``learn()`` methods are ``drive(self, self.oracle)``.
"""

from __future__ import annotations

from typing import Any

from repro.oracle.expression import ExpressionQuestion
from repro.protocol.core import Finished, Round, as_protocol

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


def drive(learner: Any, oracle: Any) -> Any:
    """Run a step-driven learner to completion against ``oracle``.

    ``learner`` may be an object with ``steps()``, a step generator, or a
    :class:`~repro.protocol.core.LearnerProtocol`.  Returns the learner's
    result.
    """
    protocol = as_protocol(learner)
    event = protocol.start()
    while not isinstance(event, Finished):
        event = protocol.feed(answer_round(oracle, event))
    return event.result
