"""Serialization of round payloads: membership and expression questions.

Rounds carry either membership :class:`~repro.core.tuples.Question`
objects or :class:`~repro.oracle.expression.ExpressionQuestion` payloads
(DESIGN.md §2e); snapshots and the server wire must round-trip both.
Membership questions keep the paper-style tuple-string form of
:func:`~repro.core.serialize.question_to_dict`; expression questions are
tagged by their ``kind`` key, which no membership dict has.
:func:`encode_payloads` writes a whole round's payloads as JSON text
without building the dicts, for round replies and snapshot text.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.core.serialize import question_from_dict, question_to_dict
from repro.core.tuples import Question, format_tuple
from repro.oracle.expression import ExpressionQuestion
from repro.protocol.core import ProtocolError

__all__ = [
    "payload_to_dict",
    "payload_from_dict",
    "encode_payloads",
    "decode_answers",
]


def payload_to_dict(question: Any) -> dict[str, Any]:
    """Serialize one round payload (membership or expression question)."""
    if isinstance(question, Question):
        return question_to_dict(question)
    if isinstance(question, ExpressionQuestion):
        data: dict[str, Any] = {
            "kind": question.kind,
            "variables": list(question.variables),
        }
        if question.head is not None:
            data["head"] = question.head
        return data
    raise TypeError(
        f"cannot serialize round payload of type {type(question).__name__}"
    )


def encode_payloads(questions: Iterable[Any]) -> str:
    """A round's payloads as JSON array text, byte-identical to
    ``json.dumps([payload_to_dict(q) for q in questions])``.

    Membership questions are written straight from their tuples: a
    :func:`~repro.core.tuples.format_tuple` string holds only ``0`` and
    ``1``, so it needs no escaping.  Expression questions go through
    :func:`payload_to_dict`.
    """
    parts = []
    for question in questions:
        if isinstance(question, Question):
            n = question.n
            tuples = ", ".join(
                [f'"{format_tuple(t, n)}"' for t in question.sorted_tuples()]
            )
            parts.append(f'{{"n": {n}, "tuples": [{tuples}]}}')
        else:
            parts.append(json.dumps(payload_to_dict(question)))
    return "[" + ", ".join(parts) + "]"


def decode_answers(message: dict[str, Any]) -> list[bool]:
    """Validate the ``"answers"`` payload of a wire message.

    Malformed clients are a protocol condition, not a server crash: a
    message with no ``"answers"`` key must not silently become an empty
    batch, a non-list value (``"answers": true``, a string, an object…)
    must not surface as a ``TypeError`` in a comprehension, and an
    element that is not a JSON boolean (``"false"``, ``0``, ``null``)
    must not be read by its truthiness.  Each raises
    :class:`~repro.protocol.core.ProtocolError`, which the server
    converts into a recoverable ``{"type": "error"}`` line.
    """
    if "answers" not in message:
        raise ProtocolError('answers message has no "answers" key')
    answers = message["answers"]
    if not isinstance(answers, list):
        raise ProtocolError(
            f'"answers" must be a list of booleans, '
            f"got {type(answers).__name__}"
        )
    for index, answer in enumerate(answers):
        if not isinstance(answer, bool):
            raise ProtocolError(
                f'"answers" must be a list of booleans, got '
                f"{type(answer).__name__} at index {index}"
            )
    return answers


def payload_from_dict(data: dict[str, Any]) -> Question | ExpressionQuestion:
    """Inverse of :func:`payload_to_dict`."""
    if "kind" in data:
        return ExpressionQuestion(
            kind=data["kind"],
            variables=tuple(int(v) for v in data["variables"]),
            head=(None if data.get("head") is None else int(data["head"])),
        )
    return question_from_dict(data)
