"""Sans-io learner protocol: rounds out, answers in (DESIGN.md §2e).

* :mod:`repro.protocol.core` — :class:`Round` / :class:`Finished` events,
  the ``ask_one`` / ``ask_round`` yield-point helpers step-driven learners
  are written with, and ``ask_parallel``, which runs independent step
  generators (and their :class:`Fork` hand-offs) in shared rounds.
* :mod:`repro.protocol.drivers` — the synchronous driver: ``drive``
  steps one generator, answering each round with one
  ``oracle.ask_many`` call.  The other stepper is
  :class:`~repro.interactive.session.LearningSession`, which takes its
  answers from ``feed``.
* :mod:`repro.protocol.wire` — question payloads and answer batches as
  JSON data, and a round's payloads as JSON text; :mod:`repro.server`
  serves rounds with them.
"""

from repro.protocol.core import (
    Finished,
    Fork,
    ProtocolError,
    Round,
    ask_one,
    ask_parallel,
    ask_round,
)
from repro.protocol.drivers import answer_round, drive
from repro.protocol.wire import (
    decode_answers,
    encode_payloads,
    payload_from_dict,
    payload_to_dict,
)

__all__ = [
    "Finished",
    "Fork",
    "ProtocolError",
    "Round",
    "answer_round",
    "ask_one",
    "ask_parallel",
    "ask_round",
    "decode_answers",
    "drive",
    "encode_payloads",
    "payload_from_dict",
    "payload_to_dict",
]
