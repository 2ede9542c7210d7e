"""Sans-io learner protocol: rounds out, answers in (DESIGN.md §2e).

* :mod:`repro.protocol.core` — :class:`Round` / :class:`Finished` events,
  the :class:`LearnerProtocol` state machine, and the ``ask_one`` /
  ``ask_round`` yield-point helpers step-driven learners are written with.
* :mod:`repro.protocol.drivers` — the synchronous pull driver,
  bit-identical to the historical inline oracle calls.
* :mod:`repro.protocol.aio` — the asyncio driver for remote answerers.
* :mod:`repro.protocol.wire` — question payloads and answer batches as
  JSON data; :mod:`repro.server` serves rounds with them.
"""

from repro.protocol.aio import AsyncDriver, answer_round_async, async_drive
from repro.protocol.core import (
    Finished,
    LearnerProtocol,
    ProtocolError,
    Round,
    as_protocol,
    ask_one,
    ask_round,
    run_inline,
)
from repro.protocol.drivers import SyncDriver, answer_round, drive
from repro.protocol.wire import (
    decode_answers,
    payload_from_dict,
    payload_to_dict,
)

__all__ = [
    "AsyncDriver",
    "Finished",
    "LearnerProtocol",
    "ProtocolError",
    "Round",
    "SyncDriver",
    "answer_round",
    "answer_round_async",
    "as_protocol",
    "ask_one",
    "ask_round",
    "async_drive",
    "decode_answers",
    "drive",
    "payload_from_dict",
    "payload_to_dict",
    "run_inline",
]
