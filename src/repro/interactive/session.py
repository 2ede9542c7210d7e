"""DataPlay-style interactive sessions (§1, §5).

A :class:`LearningSession` wires a learner to any membership oracle, records
the full transcript (optionally rendered into the data domain so the user
sees chocolate boxes rather than bit strings), and implements the paper's
error-recovery story: when the user corrects an earlier response, "the query
learning algorithm restart[s] query learning from the point of error" — the
corrected prefix is replayed (learners are deterministic given responses),
and live answering resumes after it.

The session runs on the sans-io step protocol (DESIGN.md §2e) and is a
*resumable service*: it steps the learner's generator itself, checking
and recording each answer batch and counting the rounds
(:attr:`LearningSession.rounds`), and :meth:`~LearningSession.step` /
:meth:`~LearningSession.feed` expose the learner's rounds directly (no
oracle required — a server forwards rounds to a remote user and feeds the
labels back).  :meth:`~LearningSession.snapshot` parks the session as a
serializable replay log, and :meth:`~LearningSession.resume` replays that
log through a fresh learner to the exact parked round.  Because learners
are deterministic given responses, the transcript *is* the session state —
the same property :meth:`~LearningSession.rerun_with_correction` exploits.
:meth:`~LearningSession.run` is the same dialogue with every round
answered by the attached oracle.

:class:`CorrectionLoop` automates the correction cycle against a noisy
simulated user until the transcript is clean, which is experiment E14.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.interactive.transcript import Transcript
from repro.oracle.base import MembershipOracle, QueryOracle
from repro.oracle.noisy import NoisyOracle, ReplayOracle
from repro.protocol.core import Finished, ProtocolError, Round, Steps
from repro.protocol.drivers import answer_round
from repro.protocol.wire import (
    encode_payloads,
    payload_from_dict,
    payload_to_dict,
)
from repro.verification.verifier import VerificationOutcome, verify_query

__all__ = [
    "SessionResult",
    "SessionSnapshot",
    "SnapshotError",
    "LearningSession",
    "CorrectionLoop",
    "VerificationSession",
]

LearnerFactory = Callable[[MembershipOracle], object]

#: The replay-log format :meth:`SessionSnapshot.to_dict` writes and
#: :meth:`SessionSnapshot.from_dict` accepts.
SNAPSHOT_VERSION = 2


class SnapshotError(ProtocolError):
    """A session snapshot could not be taken or replayed."""


class _TranscriptOracle:
    """Internal wrapper for :class:`VerificationSession`: records every
    exchange into a transcript."""

    def __init__(
        self,
        inner: MembershipOracle,
        transcript: Transcript,
        renderer: Callable[[Question], str] | None,
    ) -> None:
        self.inner = inner
        self.n = inner.n
        self.transcript = transcript
        self.renderer = renderer

    def ask_many(self, questions) -> list[bool]:
        """Forward the batch and record every exchange in question order."""
        questions = list(questions)
        if not questions:
            return []
        responses = self.inner.ask_many(questions)
        for question, response in zip(questions, responses):
            self.transcript.record(question, response, self.renderer)
        return responses


class _ConstructionOracle:
    """Placeholder oracle for step-driven sessions: carries ``n`` so
    learner constructors can size themselves, refuses to answer — a
    sans-io learner's :meth:`steps` never touches its oracle."""

    def __init__(self, n: int) -> None:
        self.n = n

    def ask_many(self, questions) -> list[bool]:
        raise ProtocolError(
            "step-driven session: answers arrive via feed(), not the oracle"
        )


@dataclass
class SessionResult:
    """What a learning session produced."""

    query: QhornQuery
    transcript: Transcript
    learner_result: object
    restarts: int = 0

    @property
    def questions_asked(self) -> int:
        return len(self.transcript)


@dataclass
class SessionSnapshot:
    """A parked learning session as a serializable replay log (§5).

    ``responses`` is the full answer prefix fed so far; because learners
    are deterministic given responses, replaying it through a fresh
    learner reproduces every round — the snapshot *subsumes* the old
    correction-restart mechanism (truncate/patch ``responses`` and resume
    to restart "from the point of error").  ``pending`` optionally pins
    the parked round's questions so :meth:`LearningSession.resume` can
    verify the replay converged to the same state.

    The log is positional, so it replays only through learners that ask
    in the same round order.  :data:`SNAPSHOT_VERSION` names that order:
    version 2 is the round-parallel learners' (DESIGN.md §2e), and a
    version-1 log, written in the older one-search-at-a-time order, is
    rejected rather than fed to the wrong questions.

    :meth:`to_json` writes the text of ``json.dumps(snapshot.to_dict())``
    without building the dicts: one ``json.dumps`` of the responses and
    :func:`~repro.protocol.wire.encode_payloads` of the pending round.
    """

    n: int
    responses: list[bool] = field(default_factory=list)
    #: Membership questions or expression payloads (DESIGN.md §2e).
    pending: list | None = None
    restarts: int = 0

    def to_json(self) -> str:
        """The snapshot as JSON text: ``json.dumps(self.to_dict())``."""
        responses = json.dumps([bool(r) for r in self.responses])
        pending = "null" if self.pending is None else encode_payloads(self.pending)
        return (
            f'{{"version": {SNAPSHOT_VERSION}, "n": {self.n}, '
            f'"responses": {responses}, "pending": {pending}, '
            f'"restarts": {self.restarts}}}'
        )

    def to_dict(self) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            "n": self.n,
            "responses": [bool(r) for r in self.responses],
            "pending": (
                None
                if self.pending is None
                else [payload_to_dict(q) for q in self.pending]
            ),
            "restarts": self.restarts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSnapshot":
        """Rebuild a snapshot; keys this version does not read are
        ignored.  Any other version is a :class:`SnapshotError`."""
        if data.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {data.get('version')!r} "
                f"(this build replays version {SNAPSHOT_VERSION} logs)"
            )
        pending = data.get("pending")
        return cls(
            n=int(data["n"]),
            responses=[bool(r) for r in data["responses"]],
            pending=(
                None
                if pending is None
                else [payload_from_dict(q) for q in pending]
            ),
            restarts=int(data.get("restarts", 0)),
        )


class LearningSession:
    """One example-driven query specification session.

    Parameters
    ----------
    learner_factory:
        Builds a learner from an oracle; the learner must be sans-io
        (expose ``steps()``, which every learner in :mod:`repro.learning`
        does) and finish with an object carrying a ``query`` attribute.
    oracle:
        The user, answering the rounds of :meth:`run`.  Simulated, noisy,
        adversarial or human.  Optional for step-driven sessions, where
        the caller supplies answers through :meth:`feed`.
    renderer:
        Optional ``Question -> str`` used to render questions into the data
        domain for the transcript (e.g. ``vocabulary.render_question``).
    n:
        Number of Boolean variables; required only when no oracle is
        attached (step-driven sessions size the learner from it).

    A step-driven session also holds its pending round as JSON text, for
    a server to send: :attr:`pending_json` encodes it once, on first
    use.  :meth:`run` never asks for it, so it encodes nothing.
    """

    def __init__(
        self,
        learner_factory: LearnerFactory,
        oracle: MembershipOracle | None = None,
        renderer: Callable[[Question], str] | None = None,
        n: int | None = None,
    ) -> None:
        self.learner_factory = learner_factory
        self.oracle = oracle
        self.renderer = renderer
        self._n = n
        # Step-driven state (None until start()/resume()).
        self._steps: Steps | None = None
        self.transcript: Transcript = Transcript()
        self._event: Round | Finished | None = None
        #: Rounds the learner has asked so far, the pending one included.
        self.rounds = 0
        self._result: SessionResult | None = None
        self._restarts = 0
        # The pending round's questions as JSON text (None until asked
        # for).
        self._pending_json: str | None = None

    @property
    def n(self) -> int:
        if self.oracle is not None:
            return self.oracle.n
        if self._n is None:
            raise ProtocolError(
                "session needs an oracle or an explicit n to size the learner"
            )
        return self._n

    # ------------------------------------------------------------------
    # Oracle-answered runs
    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Run a fresh dialogue to the end, answering each round with the
        attached oracle (this session's own step state is untouched)."""
        if self.oracle is None:
            raise ProtocolError("run() needs an attached oracle")
        session = LearningSession(
            self.learner_factory, renderer=self.renderer, n=self.oracle.n
        )
        event = session.start()
        while isinstance(event, Round):
            event = session.feed(answer_round(self.oracle, event))
        return session.result

    def rerun_with_correction(
        self,
        previous: SessionResult,
        error_index: int,
        corrected_response: bool,
        live: MembershipOracle | None = None,
    ) -> SessionResult:
        """Restart from the point of error (§5).

        Responses before ``error_index`` are replayed verbatim, the response
        at ``error_index`` is replaced by ``corrected_response``, and
        subsequent questions go to ``live`` (default: the session's oracle).
        """
        prefix = previous.transcript.responses()[:error_index]
        prefix.append(corrected_response)
        replay = ReplayOracle(prefix, live or self.oracle)
        result = LearningSession(
            self.learner_factory, replay, self.renderer
        ).run()
        result.restarts = previous.restarts + 1
        return result

    # ------------------------------------------------------------------
    # Step-driven mode (sans-io, DESIGN.md §2e)
    # ------------------------------------------------------------------
    def start(self) -> Round | Finished:
        """Begin the step-driven dialogue: run the learner to its first
        round.  The session owns a live transcript; answers arrive via
        :meth:`feed`."""
        if self._steps is not None:
            raise ProtocolError("session already started")
        learner = self.learner_factory(_ConstructionOracle(self.n))
        steps = getattr(learner, "steps", None)
        if not callable(steps):
            raise ProtocolError(
                f"{type(learner).__name__} is not a sans-io learner "
                "(no steps() method)"
            )
        self._steps = steps()
        self.transcript = Transcript()
        return self._advance(None)

    def step(self) -> Round | Finished:
        """The pending event: what the learner needs next.  Starts the
        dialogue on first call; afterwards returns the unanswered round
        (or the terminal :class:`Finished`) without advancing."""
        if self._steps is None:
            return self.start()
        if self._event is None:  # pragma: no cover - defensive
            raise ProtocolError("session has no pending event")
        return self._event

    def feed(self, answers: Sequence[bool]) -> Round | Finished:
        """Answer the pending round; returns the next round or the result.

        Every (question, answer) pair is recorded into the session
        transcript in question order — the positional replay log that
        :meth:`snapshot`/:meth:`resume` park and restore.
        """
        pending = self._event
        if not isinstance(pending, Round):
            raise ProtocolError(
                "feed() before start()"
                if self._steps is None
                else "no pending round to feed"
            )
        if len(answers) != len(pending.questions):
            raise ProtocolError(
                f"pending round has {len(pending.questions)} questions, "
                f"got {len(answers)} answers"
            )
        coerced = [bool(a) for a in answers]
        for question, answer in zip(pending.questions, coerced):
            self.transcript.record(question, answer, self.renderer)
        return self._advance(coerced)

    def _advance(self, answers: list[bool] | None) -> Round | Finished:
        """Run the learner to its next round, or to its result."""
        try:
            event = self._steps.send(answers)
        except StopIteration as stop:
            event = Finished(stop.value)
            self._result = SessionResult(
                query=stop.value.query,
                transcript=self.transcript,
                learner_result=stop.value,
                restarts=self._restarts,
            )
        else:
            if not isinstance(event, Round):
                raise ProtocolError(
                    f"step generator yielded {type(event).__name__}, "
                    "expected a Round"
                )
            self.rounds += 1
        self._event = event
        self._pending_json = None
        return event

    @property
    def pending_json(self) -> str:
        """The pending round's questions as JSON text (``null`` once the
        dialogue finished): :func:`~repro.protocol.wire.encode_payloads`,
        run once per round."""
        if self._steps is None:
            raise ProtocolError("pending_json before start()")
        if self._pending_json is None:
            pending = self._event
            self._pending_json = (
                encode_payloads(pending.questions)
                if isinstance(pending, Round)
                else "null"
            )
        return self._pending_json

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def result(self) -> SessionResult:
        if self._result is None:
            raise ProtocolError("session has not finished")
        return self._result

    # ------------------------------------------------------------------
    # Parking: snapshot / resume
    # ------------------------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """Park the session: the fed responses plus the pending round.

        Valid any time after :meth:`start` (including after finishing,
        when ``pending`` is ``None``).  The snapshot is plain data — see
        :meth:`SessionSnapshot.to_dict` — so a server can serialize it
        between user answers.
        """
        if self._steps is None:
            raise ProtocolError("snapshot() before start()")
        pending = self._event
        return SessionSnapshot(
            n=self.n,
            responses=self.transcript.responses(),
            pending=(
                list(pending.questions) if isinstance(pending, Round) else None
            ),
            restarts=self._restarts,
        )

    def resume(self, snapshot: SessionSnapshot) -> Round | Finished:
        """Rebuild the parked state by replaying the snapshot's responses
        through a fresh learner (learners are deterministic given
        responses).  Returns the pending round — verified against the
        snapshot's, if it pinned one — and the session continues with
        :meth:`feed` as if it had never been parked."""
        if self._steps is not None:
            raise ProtocolError("resume() needs a fresh session")
        if snapshot.n != self.n:
            raise SnapshotError(
                f"snapshot is over n={snapshot.n}, session over n={self.n}"
            )
        self._restarts = snapshot.restarts
        event = self.start()
        responses = snapshot.responses
        position = 0
        while isinstance(event, Round) and position < len(responses):
            size = len(event.questions)
            if position + size > len(responses):
                raise SnapshotError(
                    f"replay log ends mid-round: round of {size} questions "
                    f"at position {position}, {len(responses)} responses"
                )
            event = self.feed(responses[position : position + size])
            position += size
        if position != len(responses):
            raise SnapshotError(
                f"replay log has {len(responses) - position} unconsumed "
                "responses past the learner's final round"
            )
        if isinstance(event, Round) and snapshot.pending is not None:
            if list(event.questions) != snapshot.pending:
                raise SnapshotError(
                    "replay diverged: pending round does not match the "
                    "snapshot (different learner factory or version?)"
                )
        return event


@dataclass
class CorrectionLoop:
    """Automated noisy-user experiment (E14).

    Repeatedly: run a session against a noisy user; have the (simulated)
    user review the history against their true intent; correct the earliest
    wrong response; restart from that point.  Converges because each restart
    replays a strictly longer verified-correct prefix.
    """

    learner_factory: LearnerFactory
    target: QhornQuery
    p_flip: float
    rng: random.Random
    max_restarts: int = 100
    restarts_used: int = field(default=0, init=False)

    def run(self) -> SessionResult:
        truth = QueryOracle(self.target)
        verified_prefix: list[bool] = []
        result: SessionResult | None = None
        for attempt in range(self.max_restarts + 1):
            noisy = NoisyOracle(truth, self.p_flip, self.rng)
            oracle = ReplayOracle(verified_prefix, noisy)
            session = LearningSession(self.learner_factory, oracle)
            result = session.run()
            result.restarts = attempt
            error = self._first_error(result.transcript)
            if error is None:
                self.restarts_used = attempt
                return result
            # The user reviews the history and fixes the earliest mistake;
            # everything before it is now double-checked and kept.
            responses = result.transcript.responses()
            verified_prefix = responses[:error]
            verified_prefix.append(
                truth.ask_many([result.transcript.entries[error].question])[0]
            )
        raise RuntimeError(
            f"no clean transcript after {self.max_restarts} restarts"
        )

    def _first_error(self, transcript: Transcript) -> int | None:
        labels = QueryOracle(self.target).ask_many(
            [entry.question for entry in transcript]
        )
        for entry, label in zip(transcript, labels):
            if label != entry.response:
                return entry.index
        return None


class VerificationSession:
    """Interactive verification: show each verification question with the
    given query's label and collect the user's agreement (§4)."""

    def __init__(
        self,
        given: QhornQuery,
        oracle: MembershipOracle,
        renderer: Callable[[Question], str] | None = None,
    ) -> None:
        self.given = given
        self.oracle = oracle
        self.renderer = renderer
        self.transcript = Transcript()

    def run(self, stop_at_first: bool = True) -> VerificationOutcome:
        wrapped = _TranscriptOracle(self.oracle, self.transcript, self.renderer)
        return verify_query(self.given, wrapped, stop_at_first=stop_at_first)
