"""Round-parallel learners ask the sequential learners' questions.

Both served learners reach :func:`repro.protocol.core.ask_parallel`
through that one module attribute.  :func:`sequential` is its
one-search-at-a-time twin: it runs each branch to its end where it
starts, a hand-off included, which is the round order the learners had
before their searches shared rounds.  With the twin swapped in, every
learner must ask the same (question, answer) pairs as with the real
combinator, learn an equal query, and take at least as many rounds.
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import random_qhorn1, random_role_preserving
from repro.core.parser import parse_query
from repro.learning import Qhorn1Learner, RolePreservingLearner
from repro.oracle import QueryOracle
from repro.protocol import Fork, Round, drive
from repro.protocol import core as protocol_core


def sequential(branches):
    """``ask_parallel``'s sequential twin: no two branches share a round."""
    results = []

    def run(steps):
        answers = None
        while True:
            try:
                event = steps.send(answers)
            except StopIteration as stop:
                return stop.value
            if isinstance(event, Fork):
                yield from run(event.steps)
                answers = None
            else:
                assert isinstance(event, Round)
                answers = yield event

    for steps in branches:
        results.append((yield from run(steps)))
    return results


@contextlib.contextmanager
def sequential_rounds():
    real = protocol_core.ask_parallel
    protocol_core.ask_parallel = sequential
    try:
        yield
    finally:
        protocol_core.ask_parallel = real


class RoundLog:
    """The intent's answers, recorded round by round."""

    def __init__(self, target):
        self.inner = QueryOracle(target)
        self.n = target.n
        self.rounds = []

    def ask_many(self, questions):
        answers = self.inner.ask_many(questions)
        self.rounds.append(list(zip(questions, answers)))
        return answers

    def pairs(self):
        return Counter(pair for round_ in self.rounds for pair in round_)


def assert_same_questions_fewer_rounds(make_learner, target):
    parallel = RoundLog(target)
    learned = drive(make_learner(parallel).steps(), parallel).query
    with sequential_rounds():
        twin = RoundLog(target)
        twin_learned = drive(make_learner(twin).steps(), twin).query
    assert parallel.pairs() == twin.pairs()
    assert learned == twin_learned
    assert len(parallel.rounds) <= len(twin.rounds)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    use_all=st.booleans(),
    shortcut=st.booleans(),
)
def test_qhorn1_rounds_share_without_changing_questions(
    n, seed, use_all, shortcut
):
    target = random_qhorn1(n, random.Random(seed), use_all_variables=use_all)
    assert_same_questions_fewer_rounds(
        lambda oracle: Qhorn1Learner(
            oracle, use_shared_body_shortcut=shortcut
        ),
        target,
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    theta=st.integers(min_value=1, max_value=3),
)
def test_role_preserving_rounds_share_without_changing_questions(
    n, seed, theta
):
    target = random_role_preserving(n, random.Random(seed), theta=theta)
    assert_same_questions_fewer_rounds(RolePreservingLearner, target)


def test_twin_is_swapped_in_and_restored():
    """The twin really reaches both learners: on a target with a shared
    body and two lone variables, each takes more rounds under it."""
    target = parse_query("∀x1x2→x3 ∀x1x2→x4 ∃x5 ∃x6", n=6)
    for learner in (Qhorn1Learner, RolePreservingLearner):
        parallel = RoundLog(target)
        drive(learner(parallel).steps(), parallel)
        with sequential_rounds():
            twin = RoundLog(target)
            drive(learner(twin).steps(), twin)
        assert len(parallel.rounds) < len(twin.rounds), learner
    assert protocol_core.ask_parallel is not sequential
