"""Unit tests for the binary-search primitives (Algs. 2, 3, 8).

Each primitive is a step generator; the tests drive it with
:func:`~repro.protocol.drive`, every predicate evaluation being a
one-question round whose payload is the subset, answered by a
:class:`~repro.oracle.FunctionOracle` over the test's predicate.
"""

from __future__ import annotations

import math

import pytest

from repro.learning.search import (
    find_all_batch_steps,
    find_all_steps,
    minimal_prefix_steps,
    minimal_satisfying_subset_steps,
    narrow_steps,
)
from repro.oracle import FunctionOracle
from repro.protocol import ask_one, ask_round, drive


def _asking(subset):
    """Step predicate: ask about ``subset`` in a round of its own."""
    return (yield from ask_one(tuple(subset)))


def _run(search, pred, items):
    return drive(search(_asking, items), FunctionOracle(0, pred))


def narrow(pred, items):
    return _run(narrow_steps, pred, items)


def find_all(pred, items):
    return _run(find_all_steps, pred, items)


def minimal_prefix(pred, items):
    return _run(minimal_prefix_steps, pred, items)


def minimal_satisfying_subset(pred, items):
    return _run(minimal_satisfying_subset_steps, pred, items)


class Counter:
    """Wraps a predicate and counts evaluations (stand-in for questions)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, arg):
        self.calls += 1
        return self.fn(arg)


class TestFindOne:
    """Alg. 2 (*Find*)'s narrowing.  The root question ``pred(items)`` is
    the caller's, so every case starts from a set holding a target."""

    def test_finds_a_target(self):
        targets = {7}
        pred = Counter(lambda s: bool(set(s) & targets))
        assert narrow(pred, list(range(16))) == 7
        assert pred.calls == 4

    def test_logarithmic_questions(self):
        for size in (5, 8, 64, 100, 256):
            for target in (0, size - 1):
                pred = Counter(lambda s, target=target: target in s)
                assert narrow(pred, list(range(size))) == target
                assert pred.calls <= math.ceil(math.log2(size))

    def test_single_item(self):
        """The root question already decided a one-item set."""
        pred = Counter(lambda s: 3 in s)
        assert narrow(pred, [3]) == 3
        assert pred.calls == 0

    def test_finds_some_target_among_many(self):
        targets = {2, 9, 13}
        found = narrow(lambda s: bool(set(s) & targets), list(range(16)))
        assert found in targets


class TestFindAll:
    def test_finds_every_target(self):
        targets = {1, 5, 11}
        found = find_all(lambda s: bool(set(s) & targets), list(range(12)))
        assert set(found) == targets

    def test_empty_result(self):
        pred = Counter(lambda s: False)
        assert find_all(pred, list(range(8))) == []
        assert pred.calls == 1

    def test_question_bound_m_log_n(self):
        n, targets = 128, {3, 64, 100, 127}
        pred = Counter(lambda s: bool(set(s) & targets))
        found = find_all(pred, list(range(n)))
        assert set(found) == targets
        # O(m lg n) with a generous constant
        assert pred.calls <= 2 * len(targets) * (math.log2(n) + 1)

    def test_all_targets(self):
        items = list(range(4))
        assert find_all(lambda s: bool(s), items) == items

    def test_batch_form_same_questions_fewer_rounds(self):
        """Level-by-level FindAll asks the depth-first questions, one
        round per tree level."""
        targets = {3, 64, 100, 127}
        items = list(range(128))

        class Tally:
            n = 0

            def __init__(self):
                self.rounds: list[list[tuple]] = []

            def ask_many(self, subsets):
                self.rounds.append(list(subsets))
                return [bool(set(s) & targets) for s in subsets]

        def asking_each(subsets):
            return (yield from ask_round(tuple(s) for s in subsets))

        depth_first, level = Tally(), Tally()
        found = drive(find_all_steps(_asking, items), depth_first)
        assert drive(find_all_batch_steps(asking_each, items), level) == found
        assert set(found) == targets

        def asked(tally):
            return sorted(s for round_ in tally.rounds for s in round_)

        assert asked(level) == asked(depth_first)
        assert len(level.rounds) == math.ceil(math.log2(len(items))) + 1
        assert all(len(round_) == 1 for round_ in depth_first.rounds)


class TestMinimalPrefix:
    def test_shortest_prefix(self):
        # pred true once the prefix contains both 2 and 5
        pred = Counter(lambda s: {2, 5} <= set(s))
        items = [0, 2, 4, 5, 6]
        assert minimal_prefix(pred, items) == [0, 2, 4, 5]

    def test_none_when_unsatisfiable(self):
        assert minimal_prefix(lambda s: False, [1, 2, 3]) is None

    def test_whole_sequence_needed(self):
        items = [1, 2, 3]
        assert minimal_prefix(lambda s: len(s) == 3, items) == items

    def test_logarithmic_calls(self):
        items = list(range(256))
        pred = Counter(lambda s: 40 in s)
        minimal_prefix(pred, items)
        assert pred.calls <= math.ceil(math.log2(256)) + 2


class TestMinimalSatisfyingSubset:
    def test_extracts_exact_witness(self):
        needed = {2, 9}
        pred = Counter(lambda s: needed <= set(s))
        kept = minimal_satisfying_subset(pred, list(range(12)))
        assert set(kept) == needed

    def test_empty_when_pred_vacuous(self):
        assert minimal_satisfying_subset(lambda s: True, [1, 2, 3]) == []

    def test_raises_when_unsatisfiable(self):
        with pytest.raises(ValueError):
            minimal_satisfying_subset(lambda s: False, [1, 2])

    def test_minimality(self):
        needed = {0, 5, 7}
        kept = minimal_satisfying_subset(
            lambda s: needed <= set(s), list(range(8))
        )
        for drop in kept:
            rest = [x for x in kept if x != drop]
            assert not needed <= set(rest)

    def test_question_bound(self):
        n, needed = 128, {1, 60, 100}
        pred = Counter(lambda s: needed <= set(s))
        minimal_satisfying_subset(pred, list(range(n)))
        # |kept| binary searches plus |kept|+1 loop checks
        bound = (len(needed) + 1) + len(needed) * (math.log2(n) + 1)
        assert pred.calls <= bound

    def test_monotone_disjunction(self):
        # pred: contains any of {3, 4}; minimal witness is a single element
        kept = minimal_satisfying_subset(
            lambda s: bool(set(s) & {3, 4}), list(range(8))
        )
        assert len(kept) == 1 and kept[0] in {3, 4}
