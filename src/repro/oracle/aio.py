"""Asynchronous membership oracles: remote users on an event loop.

The adapters here cover *remote* answering (human UIs, sockets, work
queues) without blocking a thread per session.  The contract mirrors the
synchronous one exactly: an async oracle answers ``ask``/``ask_many``
coroutines with the same sequential-equivalence guarantees, and
:func:`ask_all_async` reuses :func:`~repro.oracle.base.ask_all`'s
chunk-reassembly semantics (same ``ASK_ALL_CHUNK_SIZE`` boundaries, same
sequential-``ask`` fallback for ask-only oracles), so answers and wrapper
statistics are bit-identical to the synchronous path.
"""

from __future__ import annotations

import asyncio
from itertools import islice
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.core.tuples import Question
from repro.oracle.base import ASK_ALL_CHUNK_SIZE, ask_all

__all__ = [
    "AsyncMembershipOracle",
    "AsyncOracle",
    "QueueUserOracle",
    "ask_all_async",
]


@runtime_checkable
class AsyncMembershipOracle(Protocol):
    """Anything that can label membership questions asynchronously."""

    n: int

    async def ask(self, question: Question) -> bool:
        """Return ``True`` for *answer*, ``False`` for *non-answer*."""
        ...

    async def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Label a batch; positionally equivalent to awaiting each
        question in order through :meth:`ask`."""
        ...


class AsyncOracle:
    """Adapts a synchronous oracle (or oracle stack) to the async protocol.

    Answers are computed inline on the event loop — simulated oracles are
    CPU-bound and fast, so there is nothing to await — which keeps every
    wrapper side effect (counting statistics, cache residency, seeded
    noise draws) in the exact order the synchronous path produces.
    ``ask_many`` forwards one chunk through :func:`ask_all` with chunking
    disabled: the async caller (:func:`ask_all_async`) already split at
    the canonical boundaries, and ask-only inner oracles degrade to the
    same sequential loop as the synchronous path.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.n = inner.n

    async def ask(self, question: Question) -> bool:
        return bool(self.inner.ask(question))

    async def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        return ask_all(self.inner, questions, chunk_size=None)


class QueueUserOracle:
    """A remote user behind a pair of asyncio queues.

    Each batch is posted to ``outbox`` as a list of questions; the matching
    answer list is awaited on ``inbox``.  The far side of the queues can be
    a websocket pump, an interactive UI, or the echo task of
    ``examples/remote_session.py`` — the oracle neither knows nor cares,
    which is the point of the sans-io split.

    A mismatched answer batch (wrong length, or not a sequence at all) is
    a *recoverable* protocol condition: the inbox item has already been
    consumed, so raising immediately would wedge the dialogue with no way
    for the far side to retry.  Instead the same question batch is
    re-posted to ``outbox`` (reject-and-reprompt) up to ``max_reasks``
    times; only when the far side keeps misbehaving does ``ask_many``
    raise a :class:`~repro.protocol.core.ProtocolError`.
    """

    def __init__(
        self,
        n: int,
        outbox: asyncio.Queue | None = None,
        inbox: asyncio.Queue | None = None,
        max_reasks: int = 3,
    ) -> None:
        self.n = n
        self.outbox: asyncio.Queue = outbox or asyncio.Queue()
        self.inbox: asyncio.Queue = inbox or asyncio.Queue()
        self.max_reasks = max_reasks
        #: Total mismatched batches that triggered a re-ask (metering).
        self.reasks = 0

    async def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        from repro.protocol.core import ProtocolError

        questions = list(questions)
        attempts = 0
        while True:
            await self.outbox.put(questions)
            answers = await self.inbox.get()
            try:
                got = len(answers)
            except TypeError:
                got = -1  # not a sized batch at all
            if got == len(questions):
                return [bool(a) for a in answers]
            attempts += 1
            self.reasks += 1
            detail = (
                f"remote user answered {got} of {len(questions)} questions"
                if got >= 0
                else "remote user sent a non-sequence answer batch"
            )
            if attempts > self.max_reasks:
                raise ProtocolError(
                    f"{detail}; giving up after {self.max_reasks} re-asks"
                )

    async def ask(self, question: Question) -> bool:
        return (await self.ask_many([question]))[0]


async def ask_all_async(
    oracle: Any,
    questions: Iterable[Question],
    chunk_size: int | None = ASK_ALL_CHUNK_SIZE,
) -> list[bool]:
    """Async twin of :func:`~repro.oracle.base.ask_all`.

    Chunks are awaited sequentially — answers to one chunk may determine
    nothing about the next here, but sequential submission preserves the
    synchronous path's transport order, which the equivalence contract
    (and round-counting wrappers on the far side) depends on.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be positive or None, got {chunk_size}")
    ask_many = getattr(oracle, "ask_many", None)
    if ask_many is None:
        return [await oracle.ask(q) for q in questions]
    if chunk_size is None:
        questions = list(questions)
        return list(await ask_many(questions)) if questions else []
    responses: list[bool] = []
    iterator = iter(questions)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return responses
        responses.extend(await ask_many(chunk))
