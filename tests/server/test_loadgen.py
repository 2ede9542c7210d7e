"""Loadgen scenario files and the pool-health metering they ride on.

``repro enumerate --out FILE`` writes a JSONL corpus whose ``query``
records double as loadgen scenarios; :func:`load_scenarios` is the
parser.  The pool-metering tests pin the §2i satellite: every
:class:`~repro.data.backends.dbapi.PooledConnectionSource` in a worker
process reports its health counters through ``RoundServer.stats()`` as
``pool_*`` keys, which the fleet store then merges for
``repro serve --stats``.
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


class TestPoolMetering:
    def test_server_stats_carry_pool_counters(self):
        from repro.server.core import RoundServer
        from repro.server.store import SessionStore

        with SessionStore() as store:
            server = RoundServer(store)
            stats = server.stats()
        for name in (
            "pool_connections_opened",
            "pool_checkouts",
            "pool_health_failures",
            "pool_stale_retries",
            "pool_pools",
        ):
            assert name in stats

    def test_pool_activity_shows_up_in_stats_deltas(self):
        """pool_stats() aggregates process-wide, so assert deltas."""
        from repro.oracle import SqlQueryOracle
        from repro.server.core import RoundServer
        from repro.server.store import SessionStore

        with SessionStore() as store:
            server = RoundServer(store)
            before = server.stats()
            oracle = SqlQueryOracle(parse_query("∃x1"))
            try:
                from repro.core.tuples import Question

                assert oracle.ask(Question.of(1, [1])) is True
                after = server.stats()
                assert after["pool_pools"] >= before["pool_pools"] + 1
                assert (
                    after["pool_connections_opened"]
                    > before["pool_connections_opened"]
                )
                assert after["pool_checkouts"] > before["pool_checkouts"]
            finally:
                oracle.close()
            # Closed pools drop out of the live aggregate.
            assert server.stats()["pool_pools"] == before["pool_pools"]

    def test_fleet_stats_merge_pool_counters(self):
        from repro.server.core import RoundServer
        from repro.server.store import SessionStore

        with SessionStore() as store:
            for worker in ("w1", "w2"):
                server = RoundServer(store, worker_id=worker)
                store.save_worker_stats(worker, server.stats())
            merged = store.fleet_stats()
        assert "pool_checkouts" in merged
        assert merged["workers"] == 2
