"""PAC learning of qhorn queries from random examples (§6 future work).

"We plan to investigate Probably Approximately Correct learning: we use
randomly-generated membership questions to learn a query with a certain
probability of error."

The classic consistency argument applies directly: draw ``m`` objects from
a distribution ``D``, label them with the hidden target, and return any
hypothesis consistent with the sample.  With

    m ≥ (1/ε) · (ln |H| + ln (1/δ))

the returned hypothesis errs on at most ε of ``D`` with probability 1 − δ.
For the enumerable classes (role-preserving qhorn at small n) we filter the
exhaustive hypothesis space; experiment E17 sweeps ``m`` and measures the
error curve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import tuples as bt
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.oracle.base import MembershipOracle, QueryOracle
from repro.protocol.core import Steps, ask_round
from repro.protocol.drivers import drive

__all__ = [
    "ObjectSampler",
    "random_object_sampler",
    "pac_sample_bound",
    "PacLearner",
    "pac_learn",
    "estimate_error",
    "PacResult",
]

ObjectSampler = Callable[[random.Random], Question]


def random_object_sampler(
    n: int, max_tuples: int | None = None
) -> ObjectSampler:
    """A simple example distribution: object size uniform in 1..max_tuples,
    tuples uniform over {0,1}^n (with the all-true tuple slightly boosted so
    positive examples are not vanishingly rare)."""
    max_tuples = max_tuples or max(2, n)
    top = bt.all_true(n)

    def sample(rng: random.Random) -> Question:
        size = rng.randint(1, max_tuples)
        tuples = [rng.randint(0, top) for _ in range(size)]
        if rng.random() < 0.3:
            tuples.append(top)
        return Question.of(n, tuples)

    return sample


def pac_sample_bound(
    hypothesis_count: int, epsilon: float, delta: float
) -> int:
    """The consistency-learner sample bound m ≥ (ln|H| + ln(1/δ)) / ε."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    return math.ceil(
        (math.log(hypothesis_count) + math.log(1 / delta)) / epsilon
    )


@dataclass
class PacResult:
    """Outcome of a PAC run."""

    query: QhornQuery
    samples_used: int
    consistent_hypotheses: int


class PacLearner:
    """The PAC consistency learner behind a membership oracle.

    The one protocol round is the whole sample: ``m`` objects drawn
    upfront from the distribution, labeled by whoever answers the round
    (the hidden target in simulation, a user in a session).  Any
    hypothesis consistent with the labeled sample is returned — the first
    in enumeration order, as the classic learner may.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        hypotheses: Sequence[QhornQuery],
        sampler: ObjectSampler,
        m: int,
        rng: random.Random,
    ) -> None:
        self.oracle = oracle
        self.n = oracle.n
        self.hypotheses = list(hypotheses)
        self.sampler = sampler
        self.m = m
        self.rng = rng

    def learn(self) -> PacResult:
        """Drive :meth:`steps` to the end, answering with the oracle."""
        return drive(self.steps(), self.oracle)

    def steps(self) -> Steps:
        """The learner as a sans-io step generator (DESIGN.md §2e)."""
        objects = [self.sampler(self.rng) for _ in range(self.m)]
        labels = yield from ask_round(objects)
        samples = list(zip(objects, labels))
        remaining = []
        for h in self.hypotheses:
            compiled = h.compile()
            if all(
                compiled.evaluate(obj.tuples) == label
                for obj, label in samples
            ):
                remaining.append(h)
        if not remaining:
            raise RuntimeError("hypothesis space exhausted; target not in it")
        return PacResult(
            query=remaining[0],
            samples_used=self.m,
            consistent_hypotheses=len(remaining),
        )


def pac_learn(
    target: QhornQuery,
    hypotheses: Sequence[QhornQuery],
    sampler: ObjectSampler,
    m: int,
    rng: random.Random,
) -> PacResult:
    """Label ``m`` sampled objects with ``target`` and return a consistent
    hypothesis (the first in enumeration order, as the classic learner may).

    Batch-first (DESIGN.md §2b): the whole sample is drawn upfront (same
    RNG stream as the sequential draw-filter loop, which never touches the
    RNG between draws) and labeled in one mask-native
    :meth:`~repro.oracle.base.QueryOracle.ask_many` round — one compile of
    the target, one evaluation per *distinct* sampled object.  Hypothesis
    filtering then runs per compiled hypothesis over the shared labels;
    consistency is order-independent, so the surviving set, the returned
    hypothesis and the exhaustion error match the sequential formulation
    exactly.

    Raises ``RuntimeError`` if no hypothesis is consistent — impossible when
    ``target`` (or an equivalent) is in the space.
    """
    return PacLearner(
        QueryOracle(target), hypotheses, sampler, m, rng
    ).learn()


def estimate_error(
    a: QhornQuery,
    b: QhornQuery,
    sampler: ObjectSampler,
    trials: int,
    rng: random.Random,
) -> float:
    """Monte-Carlo disagreement rate of two queries under the distribution.

    Both queries evaluate through their compiled forms over the batch of
    sampled objects (identical answers to the reference path, DESIGN.md §2).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    objects = [sampler(rng) for _ in range(trials)]
    ca, cb = a.compile(), b.compile()
    disagree = sum(
        1 for obj in objects if ca.evaluate(obj.tuples) != cb.evaluate(obj.tuples)
    )
    return disagree / trials
