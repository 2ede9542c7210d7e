"""Sans-io learner protocol: rounds out, answers in (DESIGN.md §2e).

The paper's dialogues are turn-based — the learner shows the user a batch
of membership questions, the user labels them, repeat (Abouzied et al.,
PODS 2013).  This module makes those *rounds* the API surface instead of
an implementation detail buried in call stacks: a learner is a generator
of :class:`Round` objects that receives the answers at each ``yield``
and returns its result.

Nothing in this module performs I/O or touches an oracle.  Two callers
step a learner's generator: :func:`~repro.protocol.drivers.drive` (one
``ask_many`` call per membership round), and
:class:`~repro.interactive.session.LearningSession`, whose
``start() -> Round | Finished`` / ``feed(answers) -> Round | Finished``
take answers from anywhere and add parking and snapshot/resume;
:class:`~repro.server.RoundServer` serves remote answerers with it.

Writing a step-driven learner
-----------------------------
A learner's ``steps()`` method is a generator that yields rounds and
receives answer lists::

    def steps(self):
        answers = yield from ask_round([q1, q2, q3])   # one batch
        if (yield from ask_one(q4)):                    # one question
            ...
        return result

Whoever drives the generator answers each round in one go: the
synchronous driver with one ``oracle.ask_many`` call, the server with one
``answers`` message.

Searches that do not depend on each other share rounds through
:func:`ask_parallel`: every round carries each running branch's pending
questions, and a branch may hand off (:class:`Fork`) work whose answers
decide none of its later questions::

    bodies = yield from ask_parallel([search(h) for h in heads])

An adaptive chain stays sequential within itself; only the round count
falls, never the questions asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, Sequence

__all__ = [
    "Round",
    "Finished",
    "ProtocolError",
    "ask_one",
    "ask_round",
    "ask_parallel",
    "Fork",
]

#: A learner step generator: yields rounds (and, inside
#: :func:`ask_parallel`, hand-offs), receives answer sequences, returns
#: the learner's result.
Steps = Generator["Round | Fork", Sequence[bool], Any]


class ProtocolError(RuntimeError):
    """The step protocol was driven out of order or fed bad answers."""


@dataclass(frozen=True)
class Round:
    """One turn of the dialogue: the questions the learner needs next.

    ``questions`` usually holds :class:`~repro.core.tuples.Question`
    membership questions; the expression learner emits
    :class:`~repro.oracle.expression.ExpressionQuestion` payloads through
    the same protocol.
    """

    questions: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.questions:
            raise ProtocolError("a round must carry at least one question")

    def __len__(self) -> int:
        return len(self.questions)


@dataclass(frozen=True)
class Fork:
    """A branch's hand-off inside :func:`ask_parallel`: run ``steps`` as a
    further branch, whose questions join the rounds from the next one on.

    The handing branch continues at once, so it must not need the
    hand-off's answers: ``steps`` reports its result through its own code.
    """

    steps: Steps


@dataclass(frozen=True)
class Finished:
    """Terminal protocol event: the learner's result."""

    result: Any


def ask_one(question: Any) -> Steps:
    """Ask one question as a round of its own.

    Usage inside a step generator: ``answer = yield from ask_one(q)``.
    """
    answers = yield Round((question,))
    return bool(answers[0])


def ask_round(questions: Iterable[Any]) -> Steps:
    """Ask a batch of questions as one round.

    An empty batch asks nothing (no round) and returns ``[]``.
    """
    questions = tuple(questions)
    if not questions:
        return []
    answers = yield Round(questions)
    if len(answers) != len(questions):
        raise ProtocolError(
            f"round of {len(questions)} questions got {len(answers)} answers"
        )
    return list(answers)


@dataclass(eq=False)
class _Branch:
    """One running branch of :func:`ask_parallel` (compared by identity)."""

    slot: int | None  # where its result goes; None for a hand-off
    steps: Steps
    pending: Round | None = None


def ask_parallel(branches: Iterable[Steps]) -> Steps:
    """Run step generators side by side, sharing each round.

    Every round joins the pending questions of every running branch, in
    the order the branches started, and the answers are split back to
    the branches by length.  A branch that yields a :class:`Fork` starts
    the handed-off branch at once and continues; a branch that finishes
    leaves the rounds.  Returns the given branches' results, in order,
    once every branch (hand-offs included) has finished.
    """
    results: list[Any] = []
    running: list[_Branch] = []

    def advance(branch: _Branch, answers: Sequence[bool] | None) -> None:
        """Run one branch to its next round, starting its hand-offs."""
        while True:
            try:
                event = branch.steps.send(answers)
            except StopIteration as stop:
                running.remove(branch)
                if branch.slot is not None:
                    results[branch.slot] = stop.value
                return
            if isinstance(event, Fork):
                start(None, event.steps)
                answers = None
                continue
            if not isinstance(event, Round):
                raise ProtocolError(
                    f"branch yielded {type(event).__name__}, expected a Round"
                )
            branch.pending = event
            return

    def start(slot: int | None, steps: Steps) -> None:
        branch = _Branch(slot, steps)
        running.append(branch)
        advance(branch, None)

    for steps in branches:
        results.append(None)
        start(len(results) - 1, steps)
    while running:
        waiting = list(running)
        questions = tuple(
            q for branch in waiting for q in branch.pending.questions
        )
        answers = yield Round(questions)
        if len(answers) != len(questions):
            raise ProtocolError(
                f"round of {len(questions)} questions got {len(answers)} answers"
            )
        position = 0
        for branch in waiting:
            size = len(branch.pending.questions)
            advance(branch, answers[position : position + size])
            position += size
    return results
