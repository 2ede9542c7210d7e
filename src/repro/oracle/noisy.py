"""Imperfect users: noise injection and replayable corrections (§5).

The paper's discussion of active-learning criticisms (§5, "Noisy Users")
proposes keeping a history of all responses so a user can later fix a
mistake, which "triggers the query learning algorithm to restart query
learning from the point of error".  :class:`NoisyOracle` produces such
mistakes deterministically (seeded), and :class:`ReplayOracle` replays a
corrected transcript prefix before resuming live answering — exactly the
restart mechanism the paper sketches.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.tuples import Question
from repro.oracle.base import MembershipOracle

__all__ = ["NoisyOracle", "ReplayOracle", "ExhaustedReplayError"]


class NoisyOracle:
    """Flips each true response with probability ``p_flip`` (seeded).

    Keeps both the noisy responses it gave and the true labels, so a session
    can locate the earliest corrupted response and correct it.
    """

    def __init__(
        self, inner: MembershipOracle, p_flip: float, rng: random.Random
    ) -> None:
        if not 0.0 <= p_flip <= 1.0:
            raise ValueError("p_flip must be a probability")
        self.inner = inner
        self.n = inner.n
        self.p_flip = p_flip
        self.rng = rng
        self.given: list[bool] = []
        self.truth: list[bool] = []

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Batch the inner oracle, then flip per question in list order.

        One seeded ``rng.random()`` draw per question, in question order,
        so the flip pattern is identical however a question list is split
        into batches.  (The guarantee assumes the inner oracle does not
        consume the same ``rng`` instance, which no provided oracle does.)
        """
        questions = list(questions)
        if not questions:
            return []
        return [self._corrupt(t) for t in self.inner.ask_many(questions)]

    def _corrupt(self, true_response: bool) -> bool:
        response = (
            not true_response if self.rng.random() < self.p_flip else true_response
        )
        self.truth.append(true_response)
        self.given.append(response)
        return response

    def first_error(self) -> int | None:
        """Index of the earliest corrupted response, if any."""
        for i, (g, t) in enumerate(zip(self.given, self.truth)):
            if g != t:
                return i
        return None


class ExhaustedReplayError(RuntimeError):
    """A replay oracle ran past its recorded prefix without a live fallback."""


class ReplayOracle:
    """Replays a fixed response prefix, then defers to a live oracle.

    Used to restart a learner "from the point of error": the prefix is the
    corrected transcript up to and including the fixed response, and the
    live oracle supplies everything after it.
    """

    def __init__(
        self,
        prefix: list[bool],
        live: MembershipOracle | None,
        n: int | None = None,
    ) -> None:
        if live is None and n is None:
            raise ValueError("need either a live oracle or an explicit n")
        self.prefix = list(prefix)
        self.live = live
        self.n = live.n if live is not None else int(n)  # type: ignore[arg-type]
        self.position = 0

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Serve the batch from the prefix, then forward the remainder to
        the live oracle in one sub-batch.

        Replay order is positional: the first ``len(prefix) - position``
        questions consume recorded responses, everything after goes live.
        Running past the prefix without a live oracle raises
        :class:`ExhaustedReplayError`.
        """
        questions = list(questions)
        take = min(len(questions), len(self.prefix) - self.position)
        out: list[bool] = self.prefix[self.position : self.position + take]
        self.position += take
        rest = questions[take:]
        if rest:
            if self.live is None:
                raise ExhaustedReplayError(
                    "replay prefix exhausted and no live oracle attached"
                )
            out.extend(self.live.ask_many(rest))
        return out
