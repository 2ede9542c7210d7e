"""Differential properties: sans-io step protocol vs the pull path.

The step-protocol contract (DESIGN.md §2e) demands that driving a learner
through ``start()``/``feed()`` is observationally identical to the
historical pull path for *any* way of answering the rounds:

* ``learn()`` (the pull entry point, ``drive(self.steps(),
  self.oracle)``) and a manual loop that ``send``s each round's answers
  from the same oracle stack into ``steps()`` produce the same learned
  query, the same transcript
  (questions and responses, positionally), and the same wrapper
  statistics — counting stats, cache residency, seeded noise flips;
* a session parked with ``snapshot()`` at *any* round and resumed through
  a fresh learner converges to the same pending round and the same final
  query — the transcript really is the session state.

The suite sweeps ≥ 1000 seeded (learner, target, stack) cases across all
six protocol learners, so the agreement count demanded by the acceptance
criteria is explicit, plus hypothesis properties for the snapshot
round-trip.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import random_qhorn1, random_role_preserving
from repro.core.normalize import canonicalize
from repro.interactive import LearningSession, SessionSnapshot
from repro.learning import (
    ExpressionLearner,
    NaiveQhorn1Learner,
    PacLearner,
    Qhorn1Learner,
    QueryReviser,
    RolePreservingLearner,
    random_object_sampler,
)
from repro.oracle import (
    CachingOracle,
    CountingExpressionOracle,
    CountingOracle,
    ExpressionOracle,
    NoisyOracle,
    QueryOracle,
    RecordingOracle,
)
from repro.protocol import Finished, Round, answer_round
from repro.verification import Verifier

CASES_TARGET = 1000


# ----------------------------------------------------------------------
# Case construction
# ----------------------------------------------------------------------


def _stack(kind: str, target, seed: int):
    """A freshly constructed, identically seeded oracle stack."""
    base = QueryOracle(target)
    if kind == "plain":
        return CountingOracle(base)
    if kind == "caching":
        return CountingOracle(CachingOracle(base))
    if kind == "noisy":
        return CountingOracle(NoisyOracle(base, 0.15, random.Random(seed)))
    if kind == "recording":
        return RecordingOracle(CachingOracle(base, maxsize=4))
    raise AssertionError(kind)


STACKS = ("plain", "caching", "noisy", "recording")


def _observe(oracle):
    """Everything observable about a stack, for exact comparison."""
    out = {}
    if isinstance(oracle, CountingOracle):
        out["stats"] = dict(vars(oracle.stats))
        inner = oracle.inner
    else:
        out["transcript"] = list(oracle.transcript)
        inner = oracle.inner
    if isinstance(inner, CachingOracle):
        out["cache"] = (dict(vars(inner.stats)), list(inner._cache.items()))
        inner = inner.inner
    if isinstance(inner, NoisyOracle):
        out["noise"] = (list(inner.given), list(inner.truth))
    return out


def _learner_case(kind: str, n: int, rng: random.Random):
    """(factory, target, uses_membership_oracle) for one learner kind."""
    if kind == "qhorn1":
        target = random_qhorn1(n, rng)
        return (lambda o: Qhorn1Learner(o)), target
    if kind == "qhorn1-noshortcut":
        target = random_qhorn1(n, rng)
        return (
            lambda o: Qhorn1Learner(o, use_shared_body_shortcut=False)
        ), target
    if kind == "naive":
        target = random_qhorn1(n, rng)
        return (lambda o: NaiveQhorn1Learner(o)), target
    if kind == "role-preserving":
        target = random_role_preserving(n, rng, theta=2)
        return (lambda o: RolePreservingLearner(o)), target
    if kind == "role-linear":
        target = random_role_preserving(n, rng, theta=2)
        return (lambda o: RolePreservingLearner(o, prune="linear")), target
    if kind == "reviser":
        target = random_role_preserving(n, rng, theta=2)
        given = random_role_preserving(n, random.Random(rng.randrange(2**32)), theta=2)
        return (lambda o: QueryReviser(given, o)), target
    if kind == "verifier":
        target = random_role_preserving(n, rng, theta=2)
        given = random_role_preserving(n, random.Random(rng.randrange(2**32)), theta=2)
        verifier = Verifier(given)
        return (lambda o: _VerifierLearner(verifier, o)), target
    if kind == "pac":
        target = random_role_preserving(max(2, n - 2), rng, theta=1)
        sampler = random_object_sampler(target.n)
        seed = rng.randrange(2**32)
        return (
            lambda o: PacLearner(
                o, [target], sampler, m=12, rng=random.Random(seed)
            )
        ), target
    raise AssertionError(kind)


class _VerifierLearner:
    """Adapts the verifier to the learner driving shape for this suite."""

    def __init__(self, verifier: Verifier, oracle) -> None:
        self.verifier = verifier
        self.oracle = oracle
        self.n = oracle.n

    def steps(self):
        return self.verifier.steps(stop_at_first=False)

    def learn(self):
        return self.verifier.run(self.oracle)


LEARNERS = (
    "qhorn1",
    "qhorn1-noshortcut",
    "naive",
    "role-preserving",
    "role-linear",
    "reviser",
    "verifier",
    "pac",
)


def _result_key(kind: str, result):
    if kind == "verifier":
        return (
            result.verified,
            result.questions_asked,
            [(d.item, d.user_response) for d in result.disagreements],
        )
    if kind == "pac":
        return (result.query, result.samples_used, result.consistent_hypotheses)
    return getattr(result, "query", result)


def _drive_manual(factory, oracle):
    """Drive steps() by hand: send each round's answer_round into it."""
    steps = factory(oracle).steps()
    rounds = []
    answers = None
    while True:
        try:
            event = steps.send(answers)
        except StopIteration as stop:
            return stop.value, rounds
        assert isinstance(event, Round)
        rounds.append(event)
        answers = answer_round(oracle, event)


# ----------------------------------------------------------------------
# The ≥1000-case seeded sweep
# ----------------------------------------------------------------------


def _outcome(kind, run):
    """Normalize a drive to a comparable outcome: a result key, or the
    failure a noise-corrupted dialogue provoked (the pull path raises the
    same way, and so must every driver)."""
    try:
        return ("ok", _result_key(kind, run()))
    except (ValueError, RuntimeError) as error:
        return ("error", type(error).__name__, str(error))


def test_seeded_sweep_sync_async_manual_equivalence():
    """≥1000 cases: pull path == manual protocol, down to wrapper
    statistics, cache residency, noise draws — and identical failures
    when noise drives a learner off the rails."""
    cases = 0
    seed = 0
    while cases < CASES_TARGET:
        for learner_kind in LEARNERS:
            for stack_kind in STACKS:
                seed += 1
                rng = random.Random(seed * 7919)
                n = rng.randrange(2, 6)
                factory, target = _learner_case(learner_kind, n, rng)

                o_pull = _stack(stack_kind, target, seed)
                key = _outcome(learner_kind, lambda: factory(o_pull).learn())

                o_manual = _stack(stack_kind, target, seed)
                key_manual = _outcome(
                    learner_kind,
                    lambda: _drive_manual(factory, o_manual)[0],
                )

                assert key_manual == key
                assert _observe(o_manual) == _observe(o_pull)
                cases += 1
    assert cases >= CASES_TARGET


def test_seeded_sweep_expression_learner():
    """The expression learner speaks ExpressionQuestion rounds through the
    same protocol; pull and manual paths agree with the counting
    wrapper's tally."""
    for seed in range(120):
        rng = random.Random(seed * 104729)
        target = random_role_preserving(rng.randrange(2, 6), rng, theta=2)

        o_pull = CountingExpressionOracle(ExpressionOracle(target))
        r_pull = ExpressionLearner(o_pull).learn()

        o_manual = CountingExpressionOracle(ExpressionOracle(target))
        r_manual, rounds = _drive_manual(
            lambda o: ExpressionLearner(o), o_manual
        )

        assert r_manual.query == r_pull.query
        assert r_manual.questions_asked == r_pull.questions_asked
        assert o_manual.questions_asked == o_pull.questions_asked
        assert len(rounds) == r_pull.questions_asked  # one bit per round
        assert canonicalize(r_pull.query) == canonicalize(target)


# ----------------------------------------------------------------------
# Snapshot / resume round-trips
# ----------------------------------------------------------------------


def _run_with_park(factory, target, n, park_at: int):
    """Drive a session, parking+resuming at round ``park_at`` (0 = never)."""
    oracle = QueryOracle(target)
    session = LearningSession(factory, n=n)
    event = session.step()
    rounds = 0
    while isinstance(event, Round):
        rounds += 1
        if rounds == park_at:
            snapshot = SessionSnapshot.from_dict(session.snapshot().to_dict())
            session = LearningSession(factory, n=n)
            resumed = session.resume(snapshot)
            assert isinstance(resumed, Round)
            assert list(resumed.questions) == snapshot.pending
            event = resumed
        event = session.feed(answer_round(oracle, event))
    return session.result, rounds


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    learner_kind=st.sampled_from(
        ["qhorn1", "naive", "role-preserving", "reviser"]
    ),
    park_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_snapshot_resume_mid_session(seed, learner_kind, park_fraction):
    """Parking at any round and resuming through the serialized snapshot
    reaches the same final query and transcript as the uninterrupted run."""
    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    factory, target = _learner_case(learner_kind, n, rng)

    uninterrupted, total_rounds = _run_with_park(factory, target, n, park_at=0)
    park_at = max(1, round(park_fraction * total_rounds))
    parked, _ = _run_with_park(factory, target, n, park_at=park_at)

    assert parked.query == uninterrupted.query
    assert parked.transcript.responses() == uninterrupted.transcript.responses()
    assert [e.question for e in parked.transcript] == [
        e.question for e in uninterrupted.transcript
    ]


def test_snapshot_resume_after_finish():
    """A finished session's snapshot replays to Finished with the same query."""
    target = random_qhorn1(4, random.Random(11))
    oracle = QueryOracle(target)
    session = LearningSession(lambda o: Qhorn1Learner(o), n=4)
    event = session.step()
    while isinstance(event, Round):
        event = session.feed(answer_round(oracle, event))
    snapshot = session.snapshot()
    assert snapshot.pending is None

    fresh = LearningSession(lambda o: Qhorn1Learner(o), n=4)
    resumed = fresh.resume(snapshot)
    assert isinstance(resumed, Finished)
    assert fresh.result.query == session.result.query
