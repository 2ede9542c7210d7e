"""Property: the text the server writes is today's ``json.dumps`` text.

The server encodes each round's questions once
(:func:`~repro.protocol.wire.encode_payloads`, held by the session as
``pending_json``) and writes round reply lines around that text, and
:meth:`SessionSnapshot.to_json` writes the stored snapshot text, neither
building the dicts.  Every byte must stay what ``json.dumps`` of the
dict forms gives:

* every reply line equals ``json.dumps(<dict form>) + "\\n"``: rounds
  (:func:`~repro.server.core.round_to_dict` framed with ``session`` and
  ``worker``), the round re-sent by a warm reconnect, the round after a
  replayed resume, ``closed`` and ``finished``;
* at every round boundary ``snapshot().to_json()`` equals
  ``json.dumps(snapshot().to_dict())``, and the store row holds exactly
  that text.

Dialogues are served through :meth:`RoundServer._handle_line`, the text a
connection writes for each line, and checked against a reference
:class:`LearningSession` fed the same answers.  The expression learner,
which the server does not host, is checked on a bare session.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import random_qhorn1, random_role_preserving
from repro.interactive import LearningSession
from repro.learning import ExpressionLearner
from repro.oracle import ExpressionOracle, QueryOracle
from repro.protocol import Finished
from repro.protocol.wire import encode_payloads, payload_to_dict
from repro.server import LEARNERS, RoundServer, SessionStore
from repro.server.core import finished_to_dict, round_to_dict

from tests.properties.strategies import questions

#: Learner, largest n, intent generator: perfbench's dialogue mix.
MIX = {
    "qhorn1": (8, random_qhorn1),
    "role-preserving": (6, random_role_preserving),
}


def dumped(message: dict) -> str:
    return json.dumps(message) + "\n"


def stored_text(store: SessionStore, session_id: str) -> str:
    (text,) = store.connection.execute(
        "SELECT snapshot FROM sessions WHERE session_id = ?", (session_id,)
    ).fetchone()
    return text


def check_snapshot(server: RoundServer, store: SessionStore, sid: str, reference):
    """The live session's snapshot text is the reference's ``json.dumps``
    text, and it is what the row holds."""
    expected = json.dumps(reference.snapshot().to_dict())
    snapshot = server._sessions[sid].session.snapshot()
    assert snapshot.to_json() == json.dumps(snapshot.to_dict()) == expected
    assert stored_text(store, sid) == expected


@st.composite
def dialogues(draw):
    learner = draw(st.sampled_from(sorted(MIX)))
    max_n, generate = MIX[learner]
    n = draw(st.integers(2 if learner == "role-preserving" else 1, max_n))
    intent = generate(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    return learner, intent


@settings(max_examples=60, deadline=None)
@given(dialogues(), st.data())
def test_served_lines_and_stored_snapshots_are_json_dumps_text(dialogue, data):
    learner, intent = dialogue
    n = intent.n
    oracle = QueryOracle(intent)
    learner_cls = LEARNERS[learner]
    reference = LearningSession(lambda o: learner_cls(o), n=n)
    event = reference.start()
    with SessionStore() as store:
        server = RoundServer(store)
        worker = server.worker_id
        line = server._handle_line(
            json.dumps({"type": "open", "n": n, "learner": learner})
        )
        sid = json.loads(line)["session"]
        rounds, resumes = 1, 0
        while not isinstance(event, Finished):
            expected = dict(
                round_to_dict(event, rounds - 1), session=sid, worker=worker
            )
            assert line == dumped(expected)
            check_snapshot(server, store, sid, reference)
            hop = data.draw(st.sampled_from(["stay", "warm", "replay"]))
            if hop != "stay":
                closed = server._handle_line(
                    json.dumps({"type": "quit", "session": sid})
                )
                assert closed == dumped({"type": "closed", "session": sid})
                if hop == "replay":
                    server.evict_idle(0.0)  # drops the warm session
                replayed = server.sessions_replayed
                again = server._handle_line(
                    json.dumps({"type": "reconnect", "session": sid})
                )
                assert server.sessions_replayed == replayed + (hop == "replay")
                assert again == line
                resumes = 1
                check_snapshot(server, store, sid, reference)
            answers = oracle.ask_many(event.questions)
            event = reference.feed(answers)
            line = server._handle_line(
                json.dumps({"type": "answers", "session": sid, "answers": answers})
            )
            rounds += 1
        summary = finished_to_dict(reference)
        assert summary["rounds"] == rounds - 1
        summary.update(
            session=sid,
            worker=worker,
            metering={
                "rounds": rounds - 1,
                "questions": len(reference.transcript),
                "errors": 0,
                "resumes": resumes,
            },
        )
        assert line == dumped(summary)
        assert stored_text(store, sid) == json.dumps(reference.snapshot().to_dict())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_expression_session_text_is_json_dumps_text(n, seed):
    target = random_role_preserving(n, random.Random(seed), theta=2)
    truth = ExpressionOracle(target)
    session = LearningSession(lambda oracle: ExpressionLearner(oracle), n=n)
    event = session.start()
    while True:
        snapshot = session.snapshot()
        assert snapshot.to_json() == json.dumps(snapshot.to_dict())
        if isinstance(event, Finished):
            break
        assert session.pending_json == json.dumps(
            [payload_to_dict(q) for q in event.questions]
        )
        event = session.feed([q.answer_with(truth) for q in event.questions])
    assert session.pending_json == "null"


@settings(max_examples=200, deadline=None)
@given(st.lists(questions(), max_size=5))
def test_encode_payloads_is_json_dumps_of_the_dicts(round_questions):
    assert encode_payloads(round_questions) == json.dumps(
        [payload_to_dict(q) for q in round_questions]
    )


def test_to_json_writes_fields_edited_after_the_snapshot():
    """Fields edited after the session took the snapshot (a correction
    flips a response, or drops the pending round) are what to_json
    writes."""
    session = LearningSession(lambda oracle: LEARNERS["qhorn1"](oracle), n=3)
    event = session.start()
    session.feed([True] * len(event.questions))
    snapshot = session.snapshot()
    snapshot.responses[0] = False
    assert snapshot.to_json() == json.dumps(snapshot.to_dict())
    snapshot.pending = None
    assert snapshot.to_json() == json.dumps(snapshot.to_dict())
