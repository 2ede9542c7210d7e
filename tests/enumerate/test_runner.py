"""The `repro enumerate` run loop: corpus records, coverage counts,
resume-from-checkpoint and the CLI face (DESIGN.md §2j)."""

from __future__ import annotations

import io
import json

from repro.enumerate.runner import RunConfig, load_done, run

TINY = RunConfig(
    max_props=1,
    max_objects=1,
    matrix="backends=bitmask+dbapi",
)


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestRun:
    def test_corpus_structure_and_coverage(self):
        sink = io.StringIO()
        result = run(TINY, sink)
        assert result.ok
        records = _records(sink.getvalue())
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta"
        assert kinds[-1] == "summary"
        by_kind = {k: kinds.count(k) for k in set(kinds)}
        summary = records[-1]
        # Exhaustive coverage counts are consistent with the records.
        assert by_kind["query"] == summary["queries"] == 2
        # 4 objects over 1 variable (∅, {0}, {1}, {0,1}) → 5 stores of ≤1.
        assert by_kind["store"] == summary["stores"] == 5
        assert by_kind["instance"] == summary["pairs"]
        assert by_kind["learner"] == summary["queries"]
        assert summary["divergences"] == 0
        assert summary["bound_ok"] is True
        assert summary["status"] == "ok"
        # The full learner axis: one leg for each of the 3 learners per
        # query.
        assert summary["learner_runs"] == 2 * 3
        assert summary["backend_checks"] == summary["pairs"] * 2
        # Per-learner totals are the sums over the learner records.
        learners = [r for r in records if r["kind"] == "learner"]
        for key in ("questions", "rounds"):
            assert summary[key] == {
                name: sum(r[key][name] for r in learners)
                for name in ("naive", "qhorn1", "role-preserving")
            }

    def test_learner_records_carry_bounds(self):
        sink = io.StringIO()
        run(TINY, sink)
        learner_records = [
            r for r in _records(sink.getvalue()) if r["kind"] == "learner"
        ]
        for record in learner_records:
            assert record["status"] == "ok"
            assert record["questions"]["qhorn1"] <= record["bounds"]["qhorn1"]

    def test_resume_skips_verified_work(self):
        sink = io.StringIO()
        run(TINY, sink)
        done = _parse_done(sink.getvalue())
        resumed = io.StringIO()
        result = run(TINY, resumed, resume=done)
        assert result.learner_runs == 0
        assert result.backend_checks == 0
        assert result.skipped > 0
        assert result.ok

    def test_progress_messages_emitted(self):
        messages = []
        run(TINY, io.StringIO(), progress=messages.append)
        assert any("learner matrix" in m for m in messages)
        assert any("backend matrix" in m for m in messages)


def _parse_done(text: str):
    import tempfile

    with tempfile.NamedTemporaryFile(
        "w", suffix=".jsonl", delete=False
    ) as handle:
        handle.write(text)
        path = handle.name
    return load_done(path)


class TestLoadDone:
    def test_missing_file_is_empty(self, tmp_path):
        learners, pairs = load_done(str(tmp_path / "absent.jsonl"))
        assert learners == set() and pairs == set()

    def test_only_ok_records_count(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            json.dumps({"kind": "learner", "id": "q1-a", "status": "ok"})
            + "\n"
            + json.dumps(
                {"kind": "learner", "id": "q1-b", "status": "divergent"}
            )
            + "\n"
            + json.dumps(
                {
                    "kind": "instance",
                    "query": "q1-a",
                    "store": "s1-x",
                    "status": "ok",
                }
            )
            + "\n"
            + '{"torn tail'  # interrupted write
        )
        learners, pairs = load_done(str(path))
        assert learners == {"q1-a"}
        assert pairs == {("q1-a", "s1-x")}


class TestCli:
    def test_cli_round_trip_with_resume(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "corpus.jsonl"
        argv = [
            "enumerate",
            "--max-props",
            "1",
            "--max-objects",
            "1",
            "--matrix",
            "backends=bitmask+dbapi",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["status"] == "ok"
        assert summary["queries"] == 2

        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert resumed["skipped"] > 0
        assert resumed["learner_runs"] == 0

    def test_corpus_feeds_loadgen_scenarios(self, tmp_path, capsys):
        from repro.cli import main
        from repro.server.loadgen import load_scenarios

        out = tmp_path / "corpus.jsonl"
        assert (
            main(
                [
                    "enumerate",
                    "--max-props",
                    "1",
                    "--max-objects",
                    "0",
                    "--matrix",
                    "backends=bitmask",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        scenarios = load_scenarios(str(out))
        assert len(scenarios) == 2
        assert all(q.n == 1 for q in scenarios)


class TestRelaxedSemanticsGate:
    """Regression from the first moderate-bounds hunt: with
    ``--guarantees both`` the relaxed (require_guarantees=False) targets
    reached the learner matrix and every leg flagged a false
    'equivalence' divergence — e.g. the minimized witness ``∀x1``
    relaxed at n=1, where the learner's paper-semantics output
    legitimately differs on the witness-free object.  Relaxed queries
    must run the backend matrix only.
    """

    def test_minimized_witness_is_outside_the_hypothesis_class(self):
        from repro.core.normalize import brute_force_equivalent
        from repro.core.parser import parse_query
        from repro.enumerate.differ import run_learner_leg

        relaxed = parse_query("∀x1", n=1, require_guarantees=False)
        outcome = run_learner_leg(relaxed, "qhorn1")
        # The learner answers consistently with the oracle yet cannot
        # express the relaxed semantics: not a conformance bug.
        assert not brute_force_equivalent(outcome.learned, relaxed)
        assert outcome.learned.require_guarantees

    def test_runner_routes_relaxed_queries_to_backends_only(self):
        sink = io.StringIO()
        config = RunConfig(
            max_props=1,
            max_objects=1,
            guarantees="both",
            matrix="backends=bitmask+dbapi",
        )
        result = run(config, sink)
        assert result.ok, [d.detail for d in result.divergences]
        records = _records(sink.getvalue())
        relaxed_ids = {
            r["id"]
            for r in records
            if r["kind"] == "query"
            and not r["query"]["require_guarantees"]
        }
        assert relaxed_ids, "guarantees=both must enumerate relaxed queries"
        learner_ids = {r["id"] for r in records if r["kind"] == "learner"}
        assert not (relaxed_ids & learner_ids)
        instance_ids = {
            r["query"] for r in records if r["kind"] == "instance"
        }
        assert relaxed_ids <= instance_ids
