"""Unit tests for membership oracles, wrappers and adversaries."""

from __future__ import annotations

import random

import pytest

from repro.core.generators import random_qhorn1, uni_alias_query
from repro.core.parser import parse_query
from repro.core.tuples import Question
from repro.oracle import (
    CachingOracle,
    CandidateEliminationAdversary,
    CountingOracle,
    ExhaustedReplayError,
    FunctionOracle,
    MembershipOracle,
    NoisyOracle,
    QueryOracle,
    RecordingOracle,
    ReplayOracle,
    max_elimination,
)


class TestQueryOracle:
    def test_labels_match_target(self):
        oracle = QueryOracle(parse_query("∃x1x2"))
        assert oracle.ask_many([Question.from_strings("11")])[0]
        assert not oracle.ask_many([Question.from_strings("10", "01")])[0]

    def test_rejects_wrong_width(self):
        oracle = QueryOracle(parse_query("∃x1x2"))
        with pytest.raises(ValueError):
            oracle.ask_many([Question.from_strings("111")])

    def test_satisfies_protocol(self):
        assert isinstance(QueryOracle(parse_query("∃x1")), MembershipOracle)


class TestFunctionOracle:
    def test_wraps_callable(self):
        oracle = FunctionOracle(2, lambda q: len(q) > 1)
        assert oracle.ask_many([Question.from_strings("10", "01")])[0]
        assert not oracle.ask_many([Question.from_strings("11")])[0]


class TestCountingOracle:
    def test_counts_questions_and_tuples(self):
        oracle = CountingOracle(QueryOracle(parse_query("∃x1x2")))
        oracle.ask_many([Question.from_strings("11")])
        oracle.ask_many([Question.from_strings("10", "01")])
        assert oracle.questions_asked == 2
        assert oracle.stats.tuples == 3
        assert oracle.stats.max_tuples == 2
        assert oracle.stats.answers == 1
        assert oracle.stats.non_answers == 1
        assert oracle.stats.mean_tuples == pytest.approx(1.5)
        assert oracle.stats.tuples_histogram == {1: 1, 2: 1}

    def test_reset(self):
        oracle = CountingOracle(QueryOracle(parse_query("∃x1")))
        oracle.ask_many([Question.from_strings("1")])
        oracle.reset()
        assert oracle.questions_asked == 0

    def test_empty_stats_mean(self):
        oracle = CountingOracle(QueryOracle(parse_query("∃x1")))
        assert oracle.stats.mean_tuples == 0.0


class TestCachingOracle:
    def test_caches_both_labels(self):
        inner = CountingOracle(QueryOracle(parse_query("∃x1x2")))
        cached = CachingOracle(inner)
        q_yes, q_no = Question.from_strings("11"), Question.from_strings("10")
        assert cached.ask_many([q_yes, q_yes]) == [True, True]
        assert cached.ask_many([q_no]) == [False]
        assert cached.ask_many([q_no]) == [False]
        assert inner.questions_asked == 2
        assert cached.stats.hits == 2
        assert cached.stats.misses == 2
        assert cached.stats.questions == 4
        assert cached.stats.hit_rate == pytest.approx(0.5)
        assert len(cached) == 2 and q_yes in cached

    def test_lru_eviction(self):
        cached = CachingOracle(QueryOracle(parse_query("∃x1")), maxsize=2)
        q1 = Question.of(1, [0])
        q2 = Question.of(1, [1])
        q3 = Question.of(1, [0, 1])
        cached.ask_many([q1])
        cached.ask_many([q2])
        cached.ask_many([q3])  # evicts q1 (least recently asked)
        assert cached.stats.evictions == 1
        assert q1 not in cached and q2 in cached and q3 in cached
        cached.ask_many([q1])  # a miss again
        assert cached.stats.misses == 4

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            CachingOracle(QueryOracle(parse_query("∃x1")), maxsize=0)

    def test_satisfies_protocol(self):
        assert isinstance(
            CachingOracle(QueryOracle(parse_query("∃x1"))), MembershipOracle
        )

    def test_cold_learner_counts_match_oracle_observed(self):
        """Question counts reported through the learner's CountingOracle
        equal the caching oracle's observed totals on a cache-cold run,
        and the inner oracle answers exactly the misses."""
        from repro.learning import Qhorn1Learner

        target = random_qhorn1(8, random.Random(3))
        inner = CountingOracle(QueryOracle(target))
        cached = CachingOracle(inner)
        counting = CountingOracle(cached)
        Qhorn1Learner(counting).learn()
        assert counting.questions_asked == cached.stats.questions
        assert inner.questions_asked == cached.stats.misses
        assert cached.stats.misses > 0

    def test_warm_rerun_drops_oracle_calls(self):
        """Re-running the (deterministic) learner against a warm cache asks
        the same questions but reaches the inner oracle zero more times."""
        from repro.learning import Qhorn1Learner

        target = random_qhorn1(8, random.Random(3))
        inner = CountingOracle(QueryOracle(target))
        cached = CachingOracle(inner)
        first = Qhorn1Learner(CountingOracle(cached)).learn()
        cold_misses = cached.stats.misses
        warm_counting = CountingOracle(cached)
        second = Qhorn1Learner(warm_counting).learn()
        assert cached.stats.misses == cold_misses  # no new oracle work
        assert cached.stats.hits >= warm_counting.questions_asked
        assert second.query == first.query

    def test_clear_and_reset_stats(self):
        cached = CachingOracle(QueryOracle(parse_query("∃x1")))
        q = Question.from_strings("1")
        cached.ask_many([q])
        cached.reset_stats()
        assert cached.stats.questions == 0
        assert cached.stats.resident_histogram == {1: 1}
        cached.clear()
        assert len(cached) == 0
        cached.ask_many([q])
        assert cached.stats.misses == 1


class _BatchSpy:
    """Inner oracle that records every batch it receives."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.batches: list[list[Question]] = []

    def ask_many(self, questions):
        self.batches.append(list(questions))
        return self.inner.ask_many(questions)


class TestCachingOracleBatching:
    def test_batch_hits_misses_exact_with_duplicates_and_cached(self):
        """A batch mixing already-cached questions, fresh questions and
        duplicates of fresh questions produces exactly the sequential
        hit/miss tallies: first occurrence of an uncached question is the
        only miss, duplicates and pre-cached entries are hits."""
        target = parse_query("∃x1x2")
        spy = _BatchSpy(QueryOracle(target))
        cached = CachingOracle(spy)
        q_old = Question.from_strings("11")
        q_new1 = Question.from_strings("10")
        q_new2 = Question.from_strings("01", "10")
        cached.ask_many([q_old])  # pre-cache

        batch = [q_old, q_new1, q_new1, q_old, q_new2, q_new1]
        responses = cached.ask_many(batch)

        assert responses == [target.evaluate(q) for q in batch]
        assert cached.stats.misses == 3  # q_old (pre-batch), q_new1, q_new2
        assert cached.stats.hits == 4  # q_old ×2, q_new1 duplicates ×2
        assert cached.stats.questions == 7
        # Past the pre-cache call, the inner oracle saw exactly one batch
        # with only the two misses.
        assert spy.batches == [[q_old], [q_new1, q_new2]]

    def test_batch_eviction_reforwards_duplicates(self):
        """With a tiny LRU, a duplicate whose first occurrence was evicted
        mid-batch is re-forwarded, exactly like the sequential loop."""
        target = parse_query("∃x1")
        spy = _BatchSpy(QueryOracle(target))
        cached = CachingOracle(spy, maxsize=1)
        q1, q2 = Question.of(1, [1]), Question.of(1, [0])

        responses = cached.ask_many([q1, q2, q1])

        assert responses == [True, False, True]
        assert cached.stats.misses == 3  # q1, q2 (evicts q1), q1 again
        assert cached.stats.hits == 0
        assert cached.stats.evictions == 2
        assert spy.batches == [[q1, q2, q1]]

    def test_batch_matches_fresh_sequential_run_state(self):
        """Final cache contents, order and stats equal a sequential run."""
        target = parse_query("∀x1→x2 ∃x3")
        rng = random.Random(5)
        questions = [
            Question.of(3, [rng.randrange(8) for _ in range(rng.randint(1, 3))])
            for _ in range(40)
        ]
        questions = [rng.choice(questions) for _ in range(120)]
        sequential = CachingOracle(QueryOracle(target), maxsize=8)
        batched = CachingOracle(QueryOracle(target), maxsize=8)
        expected = [sequential.ask_many([q])[0] for q in questions]
        assert batched.ask_many(questions) == expected
        assert batched.stats.hits == sequential.stats.hits
        assert batched.stats.misses == sequential.stats.misses
        assert batched.stats.evictions == sequential.stats.evictions
        assert batched._cache == sequential._cache
        assert list(batched._cache) == list(sequential._cache)  # LRU order

    def test_empty_batch_is_free(self):
        cached = CachingOracle(QueryOracle(parse_query("∃x1")))
        assert cached.ask_many([]) == []
        assert cached.stats.questions == 0


class TestCountingOracleBatching:
    def test_round_stats_separate_batched_from_sequential(self):
        oracle = CountingOracle(QueryOracle(parse_query("∃x1x2")))
        q = Question.from_strings("11")
        oracle.ask_many([q])
        oracle.ask_many([q, q, q])
        oracle.ask_many([])  # no round
        assert oracle.questions_asked == 4
        assert oracle.stats.rounds == 2
        assert oracle.stats.largest_batch == 3
        assert oracle.stats.mean_batch == pytest.approx(2.0)


class TestQueryOracleBatching:
    def test_ask_many_dedups_but_answers_pointwise(self):
        target = parse_query("∀x1→x2")
        oracle = QueryOracle(target)
        a = Question.from_strings("11")
        b = Question.from_strings("10")
        assert oracle.ask_many([a, b, a, a, b]) == [
            True,
            False,
            True,
            True,
            False,
        ]

    def test_ask_many_rejects_wrong_width(self):
        oracle = QueryOracle(parse_query("∃x1x2"))
        with pytest.raises(ValueError):
            oracle.ask_many([Question.from_strings("111")])


class TestRecordingOracle:
    def test_transcript_order_and_content(self):
        oracle = RecordingOracle(QueryOracle(parse_query("∃x1")))
        q1, q2 = Question.from_strings("1"), Question.from_strings("0")
        oracle.ask_many([q1])
        oracle.ask_many([q2])
        assert [q for q, _ in oracle.transcript] == [q1, q2]
        assert oracle.responses() == [True, False]


class TestNoisyOracle:
    def test_zero_noise_is_faithful(self):
        target = parse_query("∃x1x2")
        noisy = NoisyOracle(QueryOracle(target), 0.0, random.Random(1))
        q = Question.from_strings("11")
        assert noisy.ask_many([q])[0] == target.evaluate(q)
        assert noisy.first_error() is None

    def test_full_noise_always_flips(self):
        target = parse_query("∃x1x2")
        noisy = NoisyOracle(QueryOracle(target), 1.0, random.Random(1))
        q = Question.from_strings("11")
        assert noisy.ask_many([q])[0] != target.evaluate(q)
        assert noisy.first_error() == 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            NoisyOracle(QueryOracle(parse_query("∃x1")), 1.5, random.Random(1))


class TestReplayOracle:
    def test_replays_prefix_then_live(self):
        live = QueryOracle(parse_query("∃x1"))
        replay = ReplayOracle([False, False], live)
        q_yes = Question.from_strings("1")
        assert replay.ask_many([q_yes])[0] is False
        assert replay.ask_many([q_yes])[0] is False
        assert replay.ask_many([q_yes])[0] is True  # live now

    def test_exhausted_without_live_raises(self):
        replay = ReplayOracle([True], live=None, n=1)
        q = Question.from_strings("1")
        assert replay.ask_many([q])[0]
        with pytest.raises(ExhaustedReplayError):
            replay.ask_many([q])

    def test_needs_live_or_n(self):
        with pytest.raises(ValueError):
            ReplayOracle([True], live=None)


class TestAdversary:
    def test_majority_answers_keep_candidates(self):
        candidates = [
            uni_alias_query(3, alias)
            for alias in ([], [0, 1], [0, 2], [1, 2], [0, 1, 2])
        ]
        adv = CandidateEliminationAdversary(candidates)
        # the {1^n, pattern} question eliminates at most one candidate
        q = Question.from_strings("111", "011")
        adv.ask_many([q])
        assert adv.remaining >= len(candidates) - 1

    def test_answers_consistent_with_some_candidate(self):
        candidates = [parse_query("∃x1", n=2), parse_query("∃x2", n=2)]
        adv = CandidateEliminationAdversary(candidates)
        response = adv.ask_many([Question.from_strings("10")])[0]
        assert any(
            c.evaluate(Question.from_strings("10")) == response
            for c in adv.candidates
        )

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            CandidateEliminationAdversary([])

    def test_requires_common_n(self):
        with pytest.raises(ValueError):
            CandidateEliminationAdversary(
                [parse_query("∃x1"), parse_query("∃x1x2")]
            )

    def test_max_elimination_theorem21_family(self):
        """Every question over all n=2 objects eliminates at most one
        Uni∧Alias candidate — the counting core of Theorem 2.1."""
        from itertools import chain, combinations

        n = 2
        candidates = [
            uni_alias_query(n, list(alias))
            for alias in chain.from_iterable(
                combinations(range(n), r) for r in range(n + 1)
            )
        ]
        universe = list(range(1 << n))
        questions = []
        for bits in range(1, 1 << len(universe)):
            tuples = [t for i, t in enumerate(universe) if bits & (1 << i)]
            questions.append(Question.of(n, tuples))
        assert max_elimination(candidates, questions) <= 1
