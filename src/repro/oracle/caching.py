"""LRU-cached membership oracle with hit/miss statistics.

Learners, verifiers and revision loops frequently re-ask questions they
(or a previous phase) already asked — re-running a learner against the
same intent, verifying a freshly learned query, or replaying a session.
A :class:`CachingOracle` wraps any :class:`~repro.oracle.base
.MembershipOracle` with an LRU cache keyed on the (hashable)
:class:`~repro.core.tuples.Question`, so the inner oracle — a human, a
database scan, an expensive simulation — answers each distinct question
at most once while it stays resident.

Statistics separate the two quantities the paper's complexity results
care about: ``stats.questions`` counts what the algorithms *asked* (the
measurable cost to the user-model) and ``stats.misses`` counts what the
inner oracle actually *answered* (the evaluation cost the cache saved).

Wrapping a :class:`~repro.oracle.noisy.NoisyOracle` freezes its noise
for *resident* questions: a repeated question replays the cached
(possibly flipped) label instead of re-sampling — the self-consistent
user model.  The guarantee only holds while the question stays in the
cache; pass ``maxsize=None`` when a session may exceed the LRU bound
and label consistency matters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.tuples import Question
from repro.oracle.base import MembershipOracle

__all__ = ["CacheStats", "CachingOracle"]

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction tallies of a :class:`CachingOracle`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Distinct questions currently resident, by tuple count.
    resident_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def questions(self) -> int:
        """Questions asked through the cache (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.questions if self.questions else 0.0


class CachingOracle:
    """Wraps an oracle with an LRU response cache.

    Parameters
    ----------
    inner:
        The oracle answering cache misses.
    maxsize:
        Maximum resident questions; ``None`` means unbounded.  The least
        recently *asked* question is evicted first.
    """

    def __init__(
        self, inner: MembershipOracle, maxsize: int | None = 4096
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.inner = inner
        self.n = inner.n
        self.maxsize = maxsize
        self._cache: OrderedDict[Question, bool] = OrderedDict()
        self.stats = CacheStats()

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """Answer hits from the cache and forward only the misses, in one
        batch, to the inner oracle (no call at all when every question
        hits).

        The outcome does not depend on batch boundaries, including the
        awkward cases: a duplicate of an uncached question is a *hit* from
        its second occurrence on (the first occurrence populates the
        cache), unless an eviction inside the batch pushed it out again
        first — then it is re-forwarded, exactly as asking one question at
        a time would re-ask.  The first pass below replays the LRU key
        dynamics (hit reorderings, inserts, evictions) without answers to
        derive the precise miss sequence the inner oracle must see; the
        second pass fills in responses and updates the real cache and
        statistics per question, in order.
        """
        questions = list(questions)
        simulated: OrderedDict[Question, None] = OrderedDict.fromkeys(
            self._cache
        )
        missing: list[Question] = []
        for q in questions:
            if q in simulated:
                simulated.move_to_end(q)
                continue
            missing.append(q)
            simulated[q] = None
            if self.maxsize is not None and len(simulated) > self.maxsize:
                simulated.popitem(last=False)
        responses = iter(self.inner.ask_many(missing) if missing else ())
        out: list[bool] = []
        for q in questions:
            cached = self._cache.get(q, _MISSING)
            if cached is not _MISSING:
                self._cache.move_to_end(q)
                self.stats.hits += 1
                out.append(cached)  # type: ignore[arg-type]
                continue
            response = next(responses)
            self._store(q, response)
            out.append(response)
        return out

    def _store(self, question: Question, response: bool) -> None:
        """Record one answered miss: stats, insertion, LRU eviction."""
        self.stats.misses += 1
        self._cache[question] = response
        hist = self.stats.resident_histogram
        hist[question.size] = hist.get(question.size, 0) + 1
        if self.maxsize is not None and len(self._cache) > self.maxsize:
            evicted, _ = self._cache.popitem(last=False)
            self.stats.evictions += 1
            hist[evicted.size] -= 1
            if not hist[evicted.size]:
                del hist[evicted.size]

    def __len__(self) -> int:
        """Number of resident cached questions."""
        return len(self._cache)

    def __contains__(self, question: Question) -> bool:
        return question in self._cache

    def clear(self) -> None:
        """Drop all cached responses (statistics are kept)."""
        self._cache.clear()
        self.stats.resident_histogram.clear()

    def reset_stats(self) -> None:
        """Zero the statistics (cached responses are kept)."""
        resident: dict[int, int] = {}
        for q in self._cache:
            resident[q.size] = resident.get(q.size, 0) + 1
        self.stats = CacheStats(resident_histogram=resident)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CachingOracle({self.inner!r}, resident={len(self._cache)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
