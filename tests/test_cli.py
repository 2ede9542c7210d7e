"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import socket

import pytest

from repro.cli import build_parser, main


class TestLearn:
    def test_learn_exact_exit_zero(self, capsys):
        assert main(["learn", "∀x1x2→x3 ∃x4", "--learner", "qhorn1"]) == 0
        out = capsys.readouterr().out
        assert "exact: True" in out
        assert "questions:" in out

    def test_learn_role_preserving_default(self, capsys):
        assert main(["learn", "∀x1x4→x5 ∀x3x4→x5 ∃x1x2"]) == 0
        assert "exact: True" in capsys.readouterr().out

    def test_learn_json_output(self, capsys):
        import json

        assert main(["learn", "∃x1x2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "qhorn-query-v1"

    def test_ascii_shorthand(self, capsys):
        assert main(["learn", "A x1 -> x2; E x3", "--learner", "qhorn1"]) == 0


class TestVerify:
    def test_matching_intent_exit_zero(self, capsys):
        assert main(["verify", "∀x1 ∃x2", "∀x1 ∃x2"]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_mismatch_exit_one(self, capsys):
        assert main(["verify", "∃x1x2", "∃x1 ∃x2"]) == 1
        out = capsys.readouterr().out
        assert "verified: False" in out
        assert "query says" in out


class TestRevise:
    def test_revision_reaches_intent(self, capsys):
        assert main(["revise", "∀x1x2→x3", "∀x1→x3"]) == 0
        out = capsys.readouterr().out
        assert "exact: True" in out


class TestSql:
    def test_sql_output(self, capsys):
        assert main(["sql", "∀x1 ∃x2x3"]) == 0
        out = capsys.readouterr().out
        assert "SELECT o.object_key" in out
        assert "NOT EXISTS" in out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert (
            "matching boxes: 7 / 100 (bitmask: 100 objects, 16 distinct masks)"
            in out
        )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestBackendFlag:
    def test_learn_and_verify_take_no_backend_flag(self, capsys):
        """No command picks an evaluator: learn and verify evaluate no
        relation (their simulated user answers in process), and demo
        answers from the engine's one index, so --backend and
        --backend-opt are argparse errors (exit 2) on all three."""
        for command in (["learn", "∃x1"], ["verify", "∃x1", "∃x1"], ["demo"]):
            for flag in (
                ["--backend", "dbapi"],
                ["--backend-opt", "uri=file:/nope.db"],
            ):
                with pytest.raises(SystemExit) as exit_:
                    main(command + flag)
                assert exit_.value.code == 2
                captured = capsys.readouterr()
                assert "unrecognized arguments" in captured.err
                assert captured.out == ""

    def test_sharded_rejected_for_learn(self, capsys):
        """The sharded backend is gone: an argparse error (exit 2) on
        every subcommand."""
        for command in (["learn", "∃x1"], ["verify", "∃x1", "∃x1"], ["demo"]):
            with pytest.raises(SystemExit) as exit_:
                main(command + ["--backend", "sharded"])
            assert exit_.value.code == 2
            assert "sharded" in capsys.readouterr().err

    def test_sql_backend_is_gone(self, capsys):
        """dbapi is the one SQL path and demo takes no --backend:
        ``--backend sql`` is an argparse error."""
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["demo", "--backend", "sql"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "sql" in err


class TestInputErrors:
    """A malformed query, a query too wide for a question, an
    out-of-range option or a file, database or address the command
    cannot open is the caller's input error: exit 2 with one line on
    stderr (argparse's usage and message for a rejected option), never a
    traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "∀x1 ∃"],
            ["verify", "∀x1 ∃", "∀x1"],
            ["revise", "∀x1", "∀x1 ∃"],
            ["sql", "∀x1 ∃"],
        ],
        ids=["learn", "verify", "revise", "sql"],
    )
    def test_malformed_query_exits_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro {argv[0]}: unparsed query text: '∃'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "∃x300"],
            ["learn", "∃x1", "--n", "300"],
            ["verify", "∃x300", "∃x300"],
            ["verify", "∃x1", "∃x1", "--n", "300"],
            ["revise", "∃x300", "∃x300"],
            ["revise", "∃x1", "∃x1", "--n", "300"],
        ],
        ids=["learn", "learn-n", "verify", "verify-n", "revise", "revise-n"],
    )
    def test_too_wide_query_exits_two(self, argv, capsys):
        """A question holds at most MAX_VARIABLES = 256 variables: the
        commands that ask questions refuse a wider query up front."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro {argv[0]}: query over n=300 variables; membership "
            f"questions hold 1..256\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_out_of_range_port_exits_two(self, port, tmp_path, capsys):
        store = str(tmp_path / "sessions.sqlite")
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--port", port, "--store", store])
        assert exit_.value.code == 2
        assert f"port must be 0-65535, got {port}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--store", "{missing}/s.sqlite"],
            ["serve", "--stdio", "--store", "{missing}/s.sqlite"],
            ["serve", "--port", "{busy}"],
            ["enumerate", "--max-props", "1", "--max-objects", "0",
             "--out", "{missing}/c.jsonl"],
        ],
        ids=["serve", "stdio", "busy-port", "enumerate"],
    )
    def test_unopenable_input_exits_two(self, argv, tmp_path, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            argv = [
                arg.replace("{missing}", str(tmp_path / "missing")).replace(
                    "{busy}", str(busy.getsockname()[1])
                )
                for arg in argv
            ]
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("option", "message"),
        [
            (["--matrix", "flavor=x"], "unknown matrix axis 'flavor'"),
            (["--matrix", "oracles=direct"], "unknown matrix axis 'oracles'"),
            (["--max-props", "5"], "at most 4"),
            (["--max-props", "0"], "must be 1 or more, got 0"),
            (["--progress-every", "0"], "must be 1 or more, got 0"),
            (["--max-exprs", "0"], "must be 1 or more, got 0"),
            (["--max-objects", "-1"], "must be 0 or more, got -1"),
            (["--max-rows", "-1"], "must be 0 or more, got -1"),
            (["--matrix", "learners="], "matrix axis 'learners' names no"),
            (["--matrix", "backends="], "matrix axis 'backends' names no"),
        ],
        ids=["axis", "oracles-axis", "max-props-5", "max-props-0",
             "progress-every-0", "max-exprs-0", "max-objects-negative",
             "max-rows-negative", "empty-learners-axis",
             "empty-backends-axis"],
    )
    def test_rejected_enumerate_option_exits_two(self, option, message, capsys):
        """An option enumerate cannot honour (an unknown axis, a bound out
        of range, or an empty space or axis that would report a clean
        sweep over nothing) exits 2 before any work."""
        with pytest.raises(SystemExit) as exit_:
            main(["enumerate", "--max-props", "1", "--max-objects", "0"]
                 + option)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestServeStdio:
    """`repro serve --stdio` end to end: one server connection over a
    real pipe pair; this test is the remote user."""

    @contextlib.contextmanager
    def _serve(self, store):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.abspath("src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--store", str(store)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            yield proc
        finally:
            proc.kill()
            proc.wait(timeout=30)
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                try:
                    pipe.close()
                except BrokenPipeError:
                    pass  # input left unsent to a server that stopped reading

    @staticmethod
    def _send(proc, **message):
        import json

        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()

    @staticmethod
    def _recv(proc):
        import json

        return json.loads(proc.stdout.readline())

    def _answer(self, proc, message, oracle):
        from repro.core.serialize import question_from_dict

        answers = oracle.ask_many(
            [question_from_dict(d) for d in message["questions"]]
        )
        self._send(
            proc, type="answers", session=message["session"], answers=answers
        )

    def test_serve_snapshot_resume_round_trip(self, tmp_path):
        """Park at round 2, close stdin, restart on the same store and
        finish through reconnect: the answered round is not re-asked."""
        from repro.core.parser import parse_query
        from repro.oracle import QueryOracle

        intent = parse_query("∀x1 ∃x2x3", n=4)
        oracle = QueryOracle(intent)
        store = tmp_path / "sessions.sqlite"
        with self._serve(store) as proc:
            self._send(proc, type="open", n=4, learner="qhorn1")
            first = self._recv(proc)
            assert first["type"] == "round" and first["index"] == 0
            self._answer(proc, first, oracle)
            message = self._recv(proc)
            assert message["type"] == "round" and message["index"] == 1
            session = message["session"]
            self._send(proc, type="snapshot", session=session)
            reply = self._recv(proc)
            assert reply["type"] == "snapshot"
            # The log holds exactly the first round's answers.
            assert len(reply["snapshot"]["responses"]) == len(
                first["questions"]
            )
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
            assert "shut down clean" in proc.stderr.read()

        with self._serve(store) as proc:
            self._send(proc, type="reconnect", session=session)
            live = 0
            while True:
                message = self._recv(proc)
                if message["type"] == "finished":
                    break
                assert message["type"] == "round", message
                live += 1
                self._answer(proc, message, oracle)
            assert message["session"] == session
            assert message["query"] == intent.shorthand()
            assert live == message["rounds"] - 1 and live > 1
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0

    def test_oversized_line_gets_an_error_then_eof(self, tmp_path):
        from repro.server.core import MAX_LINE_BYTES

        with self._serve(tmp_path / "sessions.sqlite") as proc:
            try:
                self._send(proc, type="open", n=3, pad="x" * 70_000)
            except BrokenPipeError:
                pass  # the server may stop reading at the limit first
            error = self._recv(proc)
            assert error["type"] == "error"
            assert str(MAX_LINE_BYTES) in error["message"]
            assert proc.stdout.readline() == ""
            assert proc.wait(timeout=30) == 0

    def test_stdio_rejects_workers_and_idle_timeout(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--stdio", "--workers", "2"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err
        assert main(["serve", "--stdio", "--idle-timeout", "5"]) == 2
        err = capsys.readouterr().err
        assert "takes no --idle-timeout" in err

    def test_learn_requires_target_without_serve(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["learn"])
        assert exit_info.value.code == 2
        assert "target" in capsys.readouterr().err


class TestServeCommand:
    """`repro serve` end to end: a real server subprocess on an ephemeral
    port, driven by the load generator, shut down with SIGTERM."""

    def test_serve_loadgen_clean_shutdown(self, tmp_path):
        import asyncio
        import json
        import os
        import signal
        import subprocess
        import sys

        from repro.server.loadgen import random_intents, run_load

        env = dict(os.environ)
        src = os.path.abspath("src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        store = tmp_path / "sessions.sqlite"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store",
                str(store),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            listening = json.loads(proc.stdout.readline())
            assert listening["type"] == "listening"
            port = listening["port"]
            intents = random_intents(4, 3, seed=7)
            report = asyncio.run(
                run_load("127.0.0.1", port, intents, think_time=0.001)
            )
            assert all(u.finished for u in report.users)
            assert store.exists()  # round boundaries hit the store
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "shut down clean" in proc.stderr.read()
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()


class TestServeLimits:
    """An out-of-range limit would switch a safeguard off silently: an
    idle timeout of 0 or less evicts every session on the shortest
    sweep.  The constructor and `repro serve` refuse it."""

    @pytest.mark.parametrize(
        "option, value",
        [
            ("idle_timeout", 0.0),
            ("idle_timeout", -1.0),
        ],
    )
    def test_out_of_range_limit_is_rejected(
        self, option, value, tmp_path, capsys
    ):
        from repro.server import RoundServer, SessionStore

        store = str(tmp_path / "sessions.sqlite")
        with SessionStore() as sessions:
            with pytest.raises(ValueError, match=option):
                RoundServer(sessions, **{option: value})
        flag = "--" + option.replace("_", "-")
        assert main(["serve", "--store", store, flag, str(value)]) == 2
        assert option in capsys.readouterr().err

    def test_max_outbox_is_gone(self, capsys):
        """Replies are written inline, so there is no reply queue to
        bound: ``--max-outbox`` is an argparse error."""
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--max-outbox", "8"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --max-outbox 8" in err

    @pytest.mark.parametrize(
        "flags", [["--workers", "2"], ["--stats"]], ids=["workers", "stats"]
    )
    def test_fleet_flags_are_gone(self, flags, capsys):
        """One process serves a store: there is no multi-process fleet
        to size and no fleet counters to print."""
        with pytest.raises(SystemExit) as exit_:
            main(["serve"] + flags)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err
