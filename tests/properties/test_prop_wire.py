"""Property: no inbound line can crash the round server's dispatch.

:meth:`~repro.server.RoundServer._handle_line` is the boundary between
the wire and the learners.  Whatever JSON value arrives — a non-object,
any message ``type`` (known or not), and ``n``/``learner``/``session``/
``answers`` fields of every JSON type — it must return reply messages
instead of raising, and every ``error`` reply must be counted in
``wire_errors``.  Dialogues drawn here also make progress (valid opens,
correctly sized answer batches, quits and reconnects of live ids), so
the property reaches the learner and store paths, not only validation.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import LEARNERS, RoundServer, SessionStore

KINDS = ("open", "reconnect", "answers", "snapshot", "quit")

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _field(data, valid):
    """``(value, present)``: mostly a plausible value, else absent or any
    JSON value."""
    roll = data.draw(st.integers(0, 9))
    if roll < 6:
        return data.draw(valid), True
    if roll < 8:
        return None, False
    return data.draw(JSON_VALUES), True


def _message(data, pending):
    """One inbound wire value; ``pending`` maps the session ids seen so
    far to the question count of their latest round."""
    if data.draw(st.integers(0, 9)) == 9:
        return data.draw(JSON_VALUES)  # anything, objects included
    kind, _ = _field(data, st.sampled_from(KINDS))
    message = {"type": kind}
    # Server-assigned ids are random: draw them by position, in the
    # (deterministic) order they were first seen.
    ids = list(pending)
    session, present = _field(
        data,
        st.sampled_from(ids) if ids else st.text(max_size=12),
    )
    if present:
        message["session"] = session
    size = pending.get(session, 0) if isinstance(session, str) else 0
    for name, valid in (
        ("n", st.integers(1, 6) | st.sampled_from((257, 100_000))),
        ("learner", st.sampled_from(sorted(LEARNERS))),
        ("answers", st.lists(st.booleans(), min_size=size, max_size=size)),
    ):
        value, present = _field(data, valid)
        if present:
            message[name] = value
    return message


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_exception_escapes_and_every_error_is_counted(data):
    with SessionStore(":memory:") as store:
        server = RoundServer(store)
        pending: dict[str, int] = {}
        errors = 0
        for _ in range(data.draw(st.integers(1, 12))):
            line = json.dumps(_message(data, pending))
            replies = [
                json.loads(reply)
                for reply in server._handle_line(line).splitlines()
            ]
            assert replies, line
            for reply in replies:
                assert reply["type"] in (
                    "round", "snapshot", "finished", "closed", "error"
                ), reply
                errors += reply["type"] == "error"
                if reply["type"] == "round":
                    pending[reply["session"]] = len(reply["questions"])
            assert server.wire_errors == errors, line
