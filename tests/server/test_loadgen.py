"""The load generator: scenario files, hops and its input checks.

``repro enumerate --out FILE`` writes a JSONL corpus whose ``query``
records double as loadgen scenarios; :func:`load_scenarios` is the
parser.  ``hop_every`` parks and reconnects every dialogue against one
:class:`~repro.server.RoundServer`.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.parser import parse_query
from repro.core.serialize import query_to_dict
from repro.interactive import LearningSession
from repro.learning import Qhorn1Learner
from repro.oracle import QueryOracle
from repro.server import RoundServer, SessionStore
from repro.server.loadgen import (
    load_scenarios,
    main,
    random_intents,
    run_load,
    simulate_user,
)


def _write(tmp_path, records):
    path = tmp_path / "scenario.jsonl"
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )
    return str(path)


class TestLoadScenarios:
    def test_corpus_query_records(self, tmp_path):
        target = parse_query("∀x1 ∃x2", n=2)
        path = _write(
            tmp_path,
            [
                {"kind": "meta", "max_props": 2},
                {"kind": "query", "id": "q2-abc", "query": query_to_dict(target)},
                {"kind": "store", "id": "s2-def", "objects": [[1, 2]]},
                {"kind": "summary", "status": "ok"},
            ],
        )
        scenarios = load_scenarios(path)
        assert len(scenarios) == 1
        assert scenarios[0] == target

    def test_bare_query_and_intent_records(self, tmp_path):
        target = parse_query("∃x1x2")
        path = _write(
            tmp_path,
            [
                {"query": query_to_dict(target)},
                {"intent": "∀x1→x2", "n": 3},
            ],
        )
        scenarios = load_scenarios(path)
        assert scenarios[0] == target
        assert scenarios[1] == parse_query("∀x1→x2", n=3)

    def test_query_record_without_dict_rejected(self, tmp_path):
        path = _write(tmp_path, [{"kind": "query", "id": "broken"}])
        with pytest.raises(ValueError, match="query"):
            load_scenarios(path)

    def test_empty_scenario_file_rejected(self, tmp_path):
        path = _write(tmp_path, [{"kind": "meta"}, {"kind": "summary"}])
        with pytest.raises(ValueError, match="no scenario intents"):
            load_scenarios(path)


async def _against_one_server(drive):
    """Run ``drive(port)`` against a fresh in-memory server; returns its
    result and the server's stats after a clean close."""
    with SessionStore() as store:
        server = RoundServer(store)
        await server.start()
        try:
            result = await drive(server.port)
        finally:
            await server.close()
        return result, server.stats()


class TestHopping:
    def test_hopping_dialogues_finish_bit_identical(self):
        """Parking and reconnecting after every round on one server
        reuses the warm session on every hop: each dialogue learns what
        the synchronous path learns, with the same transcript, and no
        hop replays."""
        intents = random_intents(6, 3, seed=2600)
        report, stats = asyncio.run(
            _against_one_server(
                lambda port: run_load(
                    "127.0.0.1", port, intents, seed=2600, hop_every=1
                )
            )
        )
        for user in report.users:
            reference = LearningSession(
                lambda oracle: Qhorn1Learner(oracle),
                oracle=QueryOracle(user.intent),
            ).run()
            questions = [q for qs, _ in user.transcript for q in qs]
            answers = [a for _, ans in user.transcript for a in ans]
            assert questions == [e.question for e in reference.transcript]
            assert answers == reference.transcript.responses()
            assert user.learned == reference.query.shorthand()
            assert user.questions == reference.questions_asked
        assert report.total_hops > 0
        assert stats["sessions_finished"] == len(intents)
        assert stats["sessions_resumed"] == report.total_hops
        assert stats["sessions_replayed"] == 0

    @pytest.mark.parametrize("hop_every", [0, -1])
    @pytest.mark.parametrize("entry", ["simulate_user", "run_load"])
    def test_hop_every_below_one_is_rejected(self, entry, hop_every):
        """A hop after fewer than one answered round would park and
        reconnect forever without answering a round."""
        (intent,) = random_intents(1, 3, seed=2601)
        calls = {
            "simulate_user": lambda port: simulate_user(
                "127.0.0.1", port, intent, hop_every=hop_every
            ),
            "run_load": lambda port: run_load(
                "127.0.0.1", port, [intent], hop_every=hop_every
            ),
        }
        with pytest.raises(ValueError, match="hop_every"):
            asyncio.run(
                asyncio.wait_for(_against_one_server(calls[entry]), 10)
            )


class TestCommandLine:
    @pytest.mark.parametrize("flag", ["--users", "--hop-every"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_exits_two(self, flag, value, capsys):
        """Zero users would pass over no dialogues at all, and a hop
        every zero rounds never answers one: both are argparse errors."""
        with pytest.raises(SystemExit) as exit_:
            main(["--port", "0", flag, value])
        assert exit_.value.code == 2
        assert f"must be 1 or more, got {value}" in capsys.readouterr().err

    def test_python_m_runs_the_module_once(self):
        """``repro.server`` does not import the loadgen, so ``python -m``
        runs it once: runpy's "found in sys.modules" RuntimeWarning,
        raised as an error here, would fail the command."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.server.loadgen", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "usage:" in done.stdout
