"""Loadgen scenario files.

``repro enumerate --out FILE`` writes a JSONL corpus whose ``query``
records double as loadgen scenarios; :func:`load_scenarios` is the
parser.
"""

from __future__ import annotations

import json

import pytest

from repro.core.parser import parse_query
from repro.core.serialize import query_to_dict
from repro.server.loadgen import load_scenarios


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

