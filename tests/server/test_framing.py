"""Line framing of the round server's wire, over TCP and over stdio.

Each case sends raw bytes to a fresh :class:`~repro.server.RoundServer`
connection, half-closes it (or waits for the server to hang up) and
checks every reply line it wrote before EOF.  The rules pinned here:

* a line is the bytes up to ``\\n``; it is stripped, decoded as UTF-8
  with bad bytes replaced, and skipped when blank, so ``\\r\\n`` endings
  and empty lines are accepted;
* lines are answered in order however the bytes arrive: one at a time,
  or several lines in one chunk;
* a line of exactly :data:`~repro.server.core.MAX_LINE_BYTES` bytes
  (before its ``\\n``) is answered; one byte more, or an unterminated
  buffer past the limit, gets one counted error naming the limit and
  then EOF, without the rest of the input being answered;
* a last line with no ``\\n`` before EOF is still answered;
* over stdio as over TCP (``TestBackpressure`` in ``test_server.py``),
  a client that stops reading stops being read.
"""

from __future__ import annotations

import asyncio
import json
import os
import random

import pytest

from repro.server import RoundServer, SessionStore
from repro.server.core import MAX_LINE_BYTES

OPEN = b'{"type": "open", "n": 3}'


def padded_open(size: int) -> bytes:
    """An ``open`` message of exactly ``size`` bytes."""
    head, tail = b'{"type": "open", "n": 3, "pad": "', b'"}'
    return head + b"x" * (size - len(head) - len(tail)) + tail


async def _tcp_session(server, chunks, gap, hang_up):
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    for chunk in chunks:
        writer.write(chunk)
        await writer.drain()
        await asyncio.sleep(gap)
    if hang_up:
        writer.write_eof()
    received = await asyncio.wait_for(reader.read(), timeout=30)
    writer.close()
    return received


async def serve_over_pipes(server):
    """Run ``server.serve_stdio`` on two fresh pipes; returns the serving
    task, the client's write transport and the client's reader."""
    loop = asyncio.get_running_loop()
    server_in, client_out = os.pipe()
    client_in, server_out = os.pipe()
    serving = asyncio.ensure_future(
        server.serve_stdio(
            open(server_in, "rb", buffering=0),
            open(server_out, "wb", buffering=0),
        )
    )
    sink, _ = await loop.connect_write_pipe(
        asyncio.Protocol, open(client_out, "wb", buffering=0)
    )
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader),
        open(client_in, "rb", buffering=0),
    )
    return serving, sink, reader


async def _stdio_session(server, chunks, gap, hang_up):
    serving, sink, reader = await serve_over_pipes(server)
    for chunk in chunks:
        sink.write(chunk)
        await asyncio.sleep(gap)
    if hang_up:
        sink.close()
    received = await asyncio.wait_for(reader.read(), timeout=30)
    await asyncio.wait_for(serving, timeout=30)
    sink.close()
    return received


SESSIONS = {"tcp": _tcp_session, "stdio": _stdio_session}


@pytest.fixture(params=sorted(SESSIONS))
def exchange(request):
    """``exchange(chunks, gap=0.0, hang_up=True) -> (replies, stats)``:
    serve one connection of a fresh server over the parametrised
    transport, send ``chunks`` ``gap`` seconds apart, then half-close
    (``hang_up``) and read every reply line up to the server's EOF."""
    session = SESSIONS[request.param]

    def run(chunks, gap=0.0, hang_up=True):
        async def main():
            with SessionStore() as store:
                server = RoundServer(store)
                try:
                    received = await session(server, chunks, gap, hang_up)
                finally:
                    await server.close()
                return received, server.stats()

        received, stats = asyncio.run(main())
        assert received.endswith(b"\n") or not received
        replies = [json.loads(line) for line in received.splitlines()]
        return replies, stats

    return run


def kinds(replies):
    return [reply["type"] for reply in replies]


class TestLines:
    def test_bytes_arriving_one_at_a_time(self, exchange):
        line = OPEN + b"\n"
        replies, stats = exchange(
            [line[i : i + 1] for i in range(len(line))], gap=0.002
        )
        assert kinds(replies) == ["round"]
        assert stats["sessions_opened"] == 1

    def test_several_lines_in_one_chunk_answered_in_order(self, exchange):
        replies, stats = exchange(
            [OPEN + b"\n" + b"[]\n" + OPEN + b"\n" + b'{"type": "nope"}\n']
        )
        assert kinds(replies) == ["round", "error", "round", "error"]
        assert replies[0]["session"] != replies[2]["session"]
        assert "unknown type 'nope'" in replies[3]["message"]
        assert stats["wire_errors"] == 2

    def test_crlf_endings_and_blank_lines(self, exchange):
        replies, stats = exchange(
            [b"\n\r\n   \n" + OPEN + b"\r\n\r\n\t\n" + OPEN + b"\r\n"]
        )
        assert kinds(replies) == ["round", "round"]
        assert stats["wire_errors"] == 0

    def test_bad_utf8_is_replaced_not_fatal(self, exchange):
        replies, stats = exchange(
            [
                b"\xff\xfe\n",
                b'{"type": "open", "n": 3, "pad": "\xff"}\n',
            ]
        )
        assert kinds(replies) == ["error", "round"]
        assert "expected one JSON object" in replies[0]["message"]
        assert stats["wire_errors"] == 1

    def test_last_line_without_newline_is_answered(self, exchange):
        replies, _ = exchange([OPEN + b"\n" + OPEN])
        assert kinds(replies) == ["round", "round"]


class TestLineLimit:
    def test_line_of_exactly_the_limit_is_answered(self, exchange):
        line = padded_open(MAX_LINE_BYTES)
        assert len(line) == MAX_LINE_BYTES
        replies, stats = exchange([line + b"\n" + OPEN + b"\n"])
        assert kinds(replies) == ["round", "round"]
        assert stats["wire_errors"] == 0

    def test_unterminated_line_of_exactly_the_limit_is_answered_at_eof(
        self, exchange
    ):
        replies, _ = exchange([padded_open(MAX_LINE_BYTES)])
        assert kinds(replies) == ["round"]

    def test_one_byte_over_gets_one_error_then_eof(self, exchange):
        replies, stats = exchange(
            [OPEN + b"\n" + padded_open(MAX_LINE_BYTES + 1) + b"\n" + OPEN + b"\n"]
        )
        assert kinds(replies) == ["round", "error"]
        assert str(MAX_LINE_BYTES) in replies[1]["message"]
        assert stats["wire_errors"] == 1
        assert stats["sessions_opened"] == 1

    def test_one_byte_over_split_across_chunks(self, exchange):
        line = padded_open(MAX_LINE_BYTES + 1) + b"\n"
        replies, stats = exchange(
            [line[:MAX_LINE_BYTES], line[MAX_LINE_BYTES:] + OPEN + b"\n"],
            gap=0.01,
        )
        assert kinds(replies) == ["error"]
        assert stats["wire_errors"] == 1
        assert stats["sessions_opened"] == 0

    def test_unterminated_buffer_past_the_limit_is_refused_before_eof(
        self, exchange
    ):
        """The server hangs up by itself: the client never closes."""
        replies, stats = exchange(
            [OPEN + b"\n" + b"x" * (MAX_LINE_BYTES + 1)], hang_up=False
        )
        assert kinds(replies) == ["round", "error"]
        assert str(MAX_LINE_BYTES) in replies[1]["message"]
        assert stats["wire_errors"] == 1


def test_a_stdio_client_that_stops_reading_stops_being_read():
    """Backpressure over stdio, as ``TestBackpressure`` checks it over
    TCP: while the client reads nothing, the server stops handling its
    lines once the stdout side is full; when it reads again, every reply
    arrives once and in order."""
    requests = 2000

    async def main():
        with SessionStore() as store:
            server = RoundServer(store)
            handled = []
            handle_line = server._handle_line

            def counted(text):
                handled.append(text)
                return handle_line(text)

            server._handle_line = counted
            serving, sink, reader = await serve_over_pipes(server)
            sids = []
            for _ in range(3):
                sink.write(b'{"type": "open", "n": 8}\n')
                sids.append(json.loads(await reader.readline())["session"])
            rng = random.Random(7)
            order = [rng.choice(sids) for _ in range(requests)]
            sink.write(
                "".join(
                    json.dumps({"type": "snapshot", "session": sid}) + "\n"
                    for sid in order
                ).encode()
            )
            await asyncio.sleep(0.3)
            stalled = len(handled)
            await asyncio.sleep(0.3)
            still = len(handled)
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 30))
                for _ in order
            ]
            sink.close()
            rest = await asyncio.wait_for(reader.read(), timeout=30)
            await asyncio.wait_for(serving, timeout=30)
            await server.close()
            return order, stalled, still, replies, rest, len(handled)

    order, stalled, still, replies, rest, handled = asyncio.run(main())
    opens = 3
    assert opens < stalled == still < opens + requests
    assert [r["type"] for r in replies] == ["snapshot"] * requests
    assert [r["session"] for r in replies] == order
    assert rest == b""
    assert handled == opens + requests
