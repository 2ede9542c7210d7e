"""Differential properties of the one-method oracle protocol.

The oracle contract (DESIGN.md §2b) makes batch boundaries unobservable:
answering a question list in one ``ask_many`` call, in consecutive
chunks or one question per call gives the same answers and leaves every
wrapper in the same observable state (cache stats and residency,
counting stats, transcripts, seeded noise flips, replay positions) —
for shuffled and duplicated question lists.  A wrapper never forwards an
empty batch.  This suite checks the contract two ways:

* hypothesis properties over random question lists and wrapper stacks;
* a seeded exhaustive sweep of ≥ 1000 (oracle stack, question list)
  cases, so the agreement count demanded by the acceptance criteria is
  explicit.

Each case builds independent copies of the same oracle stack from the
same seeds, drives one with the whole list and the others chunk by
chunk, and compares responses plus all observable state.  Every stack
bottoms out in an oracle that fails on an empty batch, and the truthful
stacks are checked against the reference ``QhornQuery.evaluate``.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.core import tuples as bt
from repro.core.generators import random_qhorn1, random_role_preserving
from repro.core.normalize import canonicalize
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.oracle import (
    CachingOracle,
    CandidateEliminationAdversary,
    CountingOracle,
    FunctionOracle,
    NoisyOracle,
    QueryOracle,
    RecordingOracle,
    ReplayOracle,
)

MAX_N = 6


def random_query(rng: random.Random, n: int) -> QhornQuery:
    """A general qhorn query (same shape space as the engine suite)."""
    universals = []
    for _ in range(rng.randrange(0, 4)):
        head = rng.randrange(n)
        others = [v for v in range(n) if v != head]
        body = rng.sample(others, rng.randrange(0, min(3, len(others)) + 1))
        universals.append((body, head))
    existentials = [
        rng.sample(range(n), rng.randrange(1, min(3, n) + 1))
        for _ in range(rng.randrange(0, 3))
    ]
    return QhornQuery.build(
        n,
        universals=universals,
        existentials=existentials,
        require_guarantees=rng.random() < 0.5,
    )


def random_questions(rng: random.Random, n: int, count: int) -> list[Question]:
    """A question list with deliberate duplication and shuffling."""
    distinct = max(1, count // 2)
    pool = [
        Question.of(
            n, [rng.randrange(1 << n) for _ in range(rng.randrange(1, 5))]
        )
        for _ in range(distinct)
    ]
    questions = [rng.choice(pool) for _ in range(count)]
    rng.shuffle(questions)
    return questions


# ----------------------------------------------------------------------
# Stack builders: each returns a fresh, identically seeded oracle
# ----------------------------------------------------------------------


class _NonEmpty:
    """The innermost oracle of every wrapper stack: a ``QueryOracle``
    that fails on an empty batch."""

    def __init__(self, target: QhornQuery) -> None:
        self.inner = QueryOracle(target)
        self.n = target.n

    def ask_many(self, questions):
        questions = list(questions)
        assert questions, "a wrapper forwarded an empty batch"
        return self.inner.ask_many(questions)


def _build_stack(kind: str, rng_seed: int, n: int, target: QhornQuery):
    """One of the wrapper configurations under test, freshly constructed."""
    if kind == "query":
        return QueryOracle(target)
    base = _NonEmpty(target)
    if kind == "function":
        return FunctionOracle(n, target.evaluate)
    if kind == "counting":
        return CountingOracle(base)
    if kind == "recording":
        return RecordingOracle(base)
    if kind == "caching":
        return CachingOracle(base)
    if kind == "caching-tiny":
        # A tiny LRU forces evictions *inside* a batch, covering the
        # re-forwarded-duplicate path.
        return CachingOracle(base, maxsize=2)
    if kind == "noisy":
        return NoisyOracle(base, 0.3, random.Random(rng_seed))
    if kind == "replay":
        prefix_rng = random.Random(rng_seed)
        prefix = [prefix_rng.random() < 0.5 for _ in range(5)]
        return ReplayOracle(prefix, base)
    if kind == "stacked":
        return CountingOracle(
            CachingOracle(
                NoisyOracle(base, 0.2, random.Random(rng_seed)), maxsize=3
            )
        )
    if kind == "adversary":
        gen = random.Random(rng_seed)
        return CandidateEliminationAdversary(
            [random_query(gen, n) for _ in range(4)]
        )
    raise AssertionError(kind)


KINDS = (
    "query",
    "function",
    "counting",
    "recording",
    "caching",
    "caching-tiny",
    "noisy",
    "replay",
    "stacked",
    "adversary",
)

#: Stacks that answer with the target's true labels.
TRUTHFUL = ("query", "function", "counting", "recording", "caching", "caching-tiny")


def _observable_state(kind: str, oracle) -> tuple:
    """Everything the contract says must match a sequential run."""
    if kind == "counting":
        s = oracle.stats
        return (s.questions, s.tuples, s.answers, s.tuples_histogram)
    if kind == "recording":
        return tuple(oracle.transcript)
    if kind in ("caching", "caching-tiny"):
        s = oracle.stats
        return (
            s.hits,
            s.misses,
            s.evictions,
            dict(s.resident_histogram),
            list(oracle._cache.items()),
        )
    if kind == "noisy":
        return (tuple(oracle.given), tuple(oracle.truth))
    if kind == "replay":
        return (oracle.position,)
    if kind == "stacked":
        inner = oracle.inner
        return (
            oracle.stats.questions,
            inner.stats.hits,
            inner.stats.misses,
            inner.stats.evictions,
            tuple(inner.inner.given),
        )
    if kind == "adversary":
        return (oracle.questions_asked, tuple(oracle.candidates))
    return ()


def chunk_sizes(rng: random.Random, count: int, largest: int) -> list[int]:
    """Consecutive chunk sizes (1..largest) covering ``count`` questions."""
    sizes: list[int] = []
    while sum(sizes) < count:
        sizes.append(rng.randint(1, largest))
    return sizes


def assert_chunks_equal_one_batch(
    kind: str, seed: int, n: int, questions: list[Question], sizes: list[int]
) -> None:
    """Asking ``questions`` in consecutive chunks of ``sizes`` equals one
    ``ask_many`` call: same answers, same observable state."""
    target = random_query(random.Random(seed), n)
    whole = _build_stack(kind, seed, n, target)
    chunked = _build_stack(kind, seed, n, target)

    expected = whole.ask_many(questions)
    got: list[bool] = []
    start = 0
    for size in sizes:
        got.extend(chunked.ask_many(questions[start : start + size]))
        start += size

    assert got == expected
    assert _observable_state(kind, chunked) == _observable_state(kind, whole)
    if kind in TRUTHFUL:
        assert expected == [target.evaluate(q) for q in questions]


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@st.composite
def oracle_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    count = draw(st.integers(min_value=0, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return kind, n, count, seed


@given(oracle_cases())
def test_ask_many_agrees_with_sequential_ask(case):
    """One question per ``ask_many`` call equals one batch."""
    kind, n, count, seed = case
    questions = random_questions(random.Random(seed ^ 0xA5A5), n, count)
    assert_chunks_equal_one_batch(kind, seed, n, questions, [1] * count)


@given(oracle_cases())
def test_chunked_batches_agree_with_one_batch(case):
    """Splitting a question list into arbitrary consecutive chunks and
    asking each chunk through ``ask_many`` equals one big batch —
    batching boundaries are unobservable."""
    kind, n, count, seed = case
    rng = random.Random(seed ^ 0x5A5A)
    questions = random_questions(rng, n, count)
    sizes = chunk_sizes(rng, count, 5)
    assert_chunks_equal_one_batch(kind, seed, n, questions, sizes)


# ----------------------------------------------------------------------
# Seeded exhaustive sweep (the acceptance criterion's ≥ 1000 cases)
# ----------------------------------------------------------------------


def test_differential_thousand_cases():
    """Every case checks singleton chunks and one random chunking
    against one batch."""
    rng = random.Random(20130624)
    cases = 0
    for i in range(110):
        for kind in KINDS:
            n = rng.randrange(1, MAX_N + 1)
            count = rng.randrange(0, 24)
            seed = rng.randrange(2**32)
            questions = random_questions(random.Random(seed), n, count)
            for sizes in ([1] * count, chunk_sizes(rng, count, 8)):
                assert_chunks_equal_one_batch(kind, seed, n, questions, sizes)
            cases += 1
    assert cases >= 1000


# ----------------------------------------------------------------------
# Learner / verifier differential: batched path ≡ sequential-ask path
# ----------------------------------------------------------------------


class OneAtATime:
    """Splits every round into one-question ``ask_many`` calls — the
    "sequential" side: a learner must not notice how its rounds reach
    the user."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.n = inner.n

    def ask_many(self, questions) -> list[bool]:
        return [self.inner.ask_many([q])[0] for q in questions]


def _run_learner(make_learner, target: QhornQuery, batched: bool):
    counting = CountingOracle(QueryOracle(target))
    oracle = counting if batched else OneAtATime(counting)
    result = make_learner(oracle).learn()
    return result.query, counting.stats


def test_learners_identical_through_batched_and_sequential_paths():
    """Identical learned queries, question counts and question multisets
    whether each round reaches the counting oracle as one batch or one
    question per call."""
    from repro.learning import Qhorn1Learner, RolePreservingLearner
    from repro.learning.baselines import NaiveQhorn1Learner

    for seed in range(12):
        rng = random.Random(900 + seed)
        q1_target = random_qhorn1(7, rng)
        rp_target = random_role_preserving(5, rng)
        for make, target in (
            (Qhorn1Learner, q1_target),
            (NaiveQhorn1Learner, q1_target),
            (RolePreservingLearner, rp_target),
        ):
            batched_query, batched_stats = _run_learner(make, target, True)
            seq_query, seq_stats = _run_learner(make, target, False)
            assert canonicalize(batched_query) == canonicalize(seq_query)
            assert canonicalize(batched_query) == canonicalize(target)
            assert batched_stats.questions == seq_stats.questions
            assert batched_stats.tuples_histogram == seq_stats.tuples_histogram
            assert batched_stats.rounds < seq_stats.rounds  # batching is real


def test_reviser_identical_through_both_paths():
    from repro.learning.revision import QueryReviser

    for seed in range(8):
        rng = random.Random(1700 + seed)
        intended = random_role_preserving(5, rng)
        given = random_role_preserving(5, rng)
        results = []
        for batched in (True, False):
            counting = CountingOracle(QueryOracle(intended))
            oracle = counting if batched else OneAtATime(counting)
            out = QueryReviser(given, oracle).revise()
            results.append((canonicalize(out.query), counting.stats.questions))
        assert results[0] == results[1]
        assert results[0][0] == canonicalize(intended)


def test_verifier_identical_through_both_paths():
    from repro.verification import Verifier, build_verification_set

    for seed in range(10):
        rng = random.Random(2600 + seed)
        given = random_role_preserving(5, rng)
        intended = random_role_preserving(5, rng)
        # The verification set itself is deterministic in the given query.
        set_a = build_verification_set(given)
        set_b = build_verification_set(given)
        assert [
            (q.kind, q.question, q.expected) for q in set_a.questions
        ] == [(q.kind, q.question, q.expected) for q in set_b.questions]
        outcomes = []
        for batched in (True, False):
            counting = CountingOracle(QueryOracle(intended))
            oracle = counting if batched else OneAtATime(counting)
            out = Verifier(given).run(oracle)
            outcomes.append(
                (
                    out.verified,
                    out.questions_asked,
                    [(d.item.kind, d.item.question) for d in out.disagreements],
                    counting.stats.questions,
                )
            )
        assert outcomes[0] == outcomes[1]


def test_verification_set_question_multiset_stable():
    """`build_verification_set` feeds the batched Verifier; its questions
    must not depend on evaluation-path side effects (compile caches etc.).
    Compare a fresh construction after compiled evaluation ran."""
    for seed in range(6):
        rng = random.Random(3100 + seed)
        query = random_role_preserving(5, rng)
        before = Counter(
            (q.kind, q.question) for q in build_verification_set_of(query)
        )
        QueryOracle(query).ask_many(
            [q.question for q in build_verification_set_of(query)]
        )
        after = Counter(
            (q.kind, q.question) for q in build_verification_set_of(query)
        )
        assert before == after


def build_verification_set_of(query):
    from repro.verification import build_verification_set

    return build_verification_set(query).questions


def test_replay_exhaustion_raises_identically():
    """Past-prefix batches without a live oracle raise however the
    questions are chunked."""
    import pytest

    from repro.oracle import ExhaustedReplayError

    q = Question.of(2, [bt.all_true(2)])
    sequential = ReplayOracle([True, False], live=None, n=2)
    batched = ReplayOracle([True, False], live=None, n=2)
    assert [
        sequential.ask_many([q])[0],
        sequential.ask_many([q])[0],
    ] == batched.ask_many([q, q])
    with pytest.raises(ExhaustedReplayError):
        sequential.ask_many([q])
    with pytest.raises(ExhaustedReplayError):
        batched.ask_many([q])
