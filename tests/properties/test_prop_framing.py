"""Property: the connection protocol frames lines as ``readline()`` did,
however the bytes are chunked and whenever the writer pauses.

A :class:`~repro.server.core._Connection` over an in-memory transport is
fed a random byte stream (short lines, ``\\r\\n`` endings, blank lines,
lines near a shrunken :data:`~repro.server.core.MAX_LINE_BYTES`, bad
UTF-8) cut into random chunks, with ``pause_writing``/``resume_writing``
calls interleaved at random, then EOF.  Whenever the writer is not
paused, every line received so far must have been answered; and what it
writes must equal a reference reading of the stream by
``StreamReader.readline``'s rules: each line stripped and decoded with bad bytes replaced, blank
ones skipped, a line longer than the limit (or an unterminated tail past
it) answered with one error and nothing after, and a last line without
``\\n`` answered at EOF.  Each line is answered once, in order.
"""

from __future__ import annotations

import asyncio
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import core as server_core

LIMIT = 16


class MemoryTransport:
    """Records writes and the read/close state the protocol sets."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closing = False
        self.reading = True

    def write(self, data: bytes) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


class EchoServer:
    """Stands in for the round server: one reply line per inbound line."""

    def __init__(self) -> None:
        self._open_connections: set = set()
        self.wire_errors = 0

    def _handle_line(self, text: str) -> str:
        return json.dumps({"echo": text}) + "\n"

    def _error(self, message: str) -> str:
        self.wire_errors += 1
        return json.dumps({"error": message}) + "\n"


def reference(stream: bytes, eof: bool = True) -> list[dict]:
    """``readline()`` over the stream, limit ``LIMIT``; before ``eof`` an
    unterminated tail within the limit is not yet a line."""
    replies: list[dict] = []
    rest = stream
    while True:
        end = rest.find(b"\n")
        line = rest if end < 0 else rest[:end]
        if len(line) > LIMIT:
            error = f"line longer than {LIMIT} bytes; closing the connection"
            return replies + [{"error": error}]
        if end < 0 and not eof:
            return replies
        text = line.strip().decode("utf-8", errors="replace")
        if text:
            replies.append({"echo": text})
        if end < 0:
            return replies
        rest = rest[end + 1 :]


PIECES = st.sampled_from(
    [b"\n", b"\r\n", b" ", b"\t", b"a", b"{}", b"\xff", b"x" * LIMIT, b"y" * (LIMIT - 3)]
)


@settings(max_examples=300, deadline=None)
@given(
    stream=st.lists(PIECES, max_size=30).map(b"".join),
    cuts=st.lists(st.integers(0, 200), max_size=12),
    pauses=st.lists(st.sampled_from(["pause", "resume", "none"]), max_size=12),
)
def test_framing_matches_readline_for_any_chunking_and_pausing(
    stream, cuts, pauses
):
    bounds = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]

    def answered(transport):
        return [json.loads(line) for line in transport.written.splitlines()]

    async def main():
        server = EchoServer()
        transport = MemoryTransport()
        connection = server_core._Connection(server)
        connection.connection_made(transport)
        delivered = b""
        for index, chunk in enumerate(chunks):
            action = pauses[index] if index < len(pauses) else "none"
            if action == "pause" and not connection.paused:
                connection.pause_writing()
            elif action == "resume" and connection.paused:
                connection.resume_writing()
                await asyncio.sleep(0)
                assert answered(transport) == reference(delivered, eof=False)
            if transport.closing:
                break
            connection.data_received(chunk)
            delivered += chunk
            if not connection.paused:
                assert answered(transport) == reference(delivered, eof=False)
                assert transport.reading or transport.closing
        if connection.paused:
            connection.resume_writing()
            await asyncio.sleep(0)
        if not transport.closing:
            connection.eof_received()
        return transport, server

    with mock.patch.object(server_core, "MAX_LINE_BYTES", LIMIT):
        transport, server = asyncio.run(main())
    replies = answered(transport)
    assert replies == reference(stream)
    assert transport.closing
    assert server.wire_errors == sum("error" in reply for reply in replies)
