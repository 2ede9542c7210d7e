"""Synchronous drivers: pull answers for a sans-io learner (DESIGN.md §2e).

:func:`drive` reproduces the pre-protocol pull path *bit-identically*: a
round recorded as ``batched`` is answered through
:func:`~repro.oracle.base.ask_all` (chunking included) and a single-ask
round through ``oracle.ask``, so every wrapper in the oracle stack — cache
residency, counting statistics, seeded noise draws, replay positions,
transcripts — observes exactly the transport calls the old inline code
made.  The learners' public ``learn()`` methods are now thin shims over
``drive(self, self.oracle)``.
"""

from __future__ import annotations

from typing import Any

from repro.oracle.base import ask_all
from repro.oracle.expression import ExpressionQuestion
from repro.protocol.core import Finished, Round, as_protocol

__all__ = ["answer_round", "drive"]


def answer_round(oracle: Any, round_: Round) -> list[bool]:
    """Answer one round through ``oracle``, replaying the legacy transport.

    Membership rounds go through ``ask_all`` (batched) or ``oracle.ask``
    (single); expression-question rounds dispatch onto the oracle's
    ``requires_conjunction`` / ``requires_implication`` methods one call
    per question, as the pull-based expression learner did.
    """
    questions = round_.questions
    if isinstance(questions[0], ExpressionQuestion):
        return [q.answer_with(oracle) for q in questions]
    if round_.batched:
        return ask_all(oracle, questions)
    return [bool(oracle.ask(q)) for q in questions]


def drive(learner: Any, oracle: Any) -> Any:
    """Run a step-driven learner to completion against ``oracle``.

    ``learner`` may be an object with ``steps()``, a step generator, or a
    :class:`~repro.protocol.core.LearnerProtocol`.  Returns the learner's
    result — the same object the old pull-based ``learn()`` returned.
    """
    protocol = as_protocol(learner)
    event = protocol.start()
    while not isinstance(event, Finished):
        event = protocol.feed(answer_round(oracle, event))
    return event.result
