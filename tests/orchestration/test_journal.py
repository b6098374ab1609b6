"""RunJournal: write-ahead recording, resume, binding, damage tolerance."""

import json
from pathlib import Path

import pytest

from repro.errors import JournalError
from repro.orchestration import (
    Artifact,
    PipelineGraph,
    Provenance,
    RunJournal,
    Stage,
    resolve_journal,
    run_key,
)


def _artifact(name="x", value=42, stage="s"):
    from repro.orchestration import artifact_digest

    return Artifact(
        name=name,
        value=value,
        provenance=Provenance(stage=stage, digest=artifact_digest(value)),
    )


def _graph(calls=None):
    calls = calls if calls is not None else []

    def s_a(ctx):
        calls.append("a")
        return 10

    def s_b(ctx, a):
        calls.append("b")
        return a + 5

    def s_c(ctx, b):
        calls.append("c")
        return b * 2

    graph = PipelineGraph(
        "demo",
        [
            Stage("a", s_a),
            Stage("b", s_b, requires=("a",)),
            Stage("c", s_c, requires=("b",)),
        ],
    )
    return graph, calls


class TestRunKey:
    def test_deterministic(self):
        graph, _ = _graph()
        assert run_key("g", graph.stages, 3, {}) == run_key(
            "g", graph.stages, 3, {}
        )

    def test_sensitive_to_every_binding(self):
        graph, _ = _graph()
        base = run_key("g", graph.stages, 3, {"i": "d1"})
        assert run_key("other", graph.stages, 3, {"i": "d1"}) != base
        assert run_key("g", graph.stages[:2], 3, {"i": "d1"}) != base
        assert run_key("g", graph.stages, 4, {"i": "d1"}) != base
        assert run_key("g", graph.stages, 3, {"i": "d2"}) != base

    def test_sensitive_to_stage_config(self):
        def fn(ctx):
            return 0

        a = run_key("g", [Stage("s", fn, config={"lr": 0.1})], 0, {})
        b = run_key("g", [Stage("s", fn, config={"lr": 0.2})], 0, {})
        assert a != b


class TestJournalBasics:
    def test_record_and_load_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("key1", "g")
        journal.record("s", _artifact(value={"nested": [1, 2]}))
        reopened = RunJournal(tmp_path / "j.json")
        assert reopened.run_key == "key1"
        assert reopened.completed_stages() == ["s"]
        artifact = reopened.load("s")
        assert artifact.value == {"nested": [1, 2]}
        assert artifact.provenance.resumed_from == str(tmp_path / "j.json")

    def test_load_unknown_stage_is_none(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        assert journal.load("nope") is None
        assert not journal.has("nope")

    def test_rerecording_a_stage_replaces_its_entry(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("k", "g")
        journal.record("s", _artifact(value=1))
        journal.record("s", _artifact(value=2))
        assert journal.completed_stages() == ["s"]
        assert RunJournal(tmp_path / "j.json").load("s").value == 2

    def test_begin_mismatched_key_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("key1", "g")
        with pytest.raises(JournalError, match="different run"):
            RunJournal(tmp_path / "j.json").begin("key2", "g")

    def test_begin_same_key_is_idempotent(self, tmp_path):
        RunJournal(tmp_path / "j.json").begin("key1", "g")
        RunJournal(tmp_path / "j.json").begin("key1", "g")

    def test_resolve_journal(self, tmp_path):
        assert resolve_journal(None) is None
        journal = RunJournal(tmp_path / "j.json")
        assert resolve_journal(journal) is journal
        assert isinstance(resolve_journal(tmp_path / "j2.json"), RunJournal)


class TestDamageTolerance:
    def test_unreadable_journal_file_starts_fresh(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text("{definitely not json")
        journal = RunJournal(path)
        assert journal.run_key is None
        assert journal.completed_stages() == []

    def test_unknown_version_starts_fresh(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        assert RunJournal(path).completed_stages() == []

    def test_malformed_entries_are_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("k", "g")
        journal.record("good", _artifact())
        data = json.loads((tmp_path / "j.json").read_text())
        data["entries"].append({"stage": "half"})  # missing keys
        data["entries"].append("not even a dict")
        (tmp_path / "j.json").write_text(json.dumps(data))
        assert RunJournal(tmp_path / "j.json").completed_stages() == ["good"]

    def test_corrupt_artifact_payload_degrades_to_rerun(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("k", "g")
        journal.record("s", _artifact())
        entry = json.loads((tmp_path / "j.json").read_text())["entries"][0]
        payload = journal.artifacts_dir / (entry["value_key"] + ".pkl")
        payload.write_bytes(b"garbage")
        assert RunJournal(tmp_path / "j.json").load("s") is None  # not fatal

    def test_missing_artifact_payload_degrades_to_rerun(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("k", "g")
        journal.record("s", _artifact())
        entry = json.loads((tmp_path / "j.json").read_text())["entries"][0]
        (journal.artifacts_dir / (entry["value_key"] + ".pkl")).unlink()
        assert RunJournal(tmp_path / "j.json").load("s") is None

    def test_digest_mismatch_degrades_to_rerun(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json")
        journal.begin("k", "g")
        journal.record("s", _artifact(value=42))
        # Swap the payload for a *valid* pickle of the wrong value.
        entry = json.loads((tmp_path / "j.json").read_text())["entries"][0]
        journal._store().store_object(entry["value_key"], 43)
        assert RunJournal(tmp_path / "j.json").load("s") is None


class TestGraphResume:
    def test_second_run_skips_all_stages(self, tmp_path):
        journal = tmp_path / "j.json"
        graph1, calls1 = _graph()
        run1 = graph1.run(seed=3, journal=journal)
        graph2, calls2 = _graph()
        run2 = graph2.run(seed=3, journal=journal)
        assert calls1 == ["a", "b", "c"]
        assert calls2 == []
        assert run2.resumed_stages == ["a", "b", "c"]
        assert run2.value("c") == run1.value("c") == 30
        assert [e["digest"] for e in run1.lineage()] == [
            e["digest"] for e in run2.lineage()
        ]

    def test_resumed_stage_provenance_says_so(self, tmp_path):
        journal = tmp_path / "j.json"
        first = _graph()[0].run(seed=3, journal=journal)
        run = _graph()[0].run(seed=3, journal=journal)
        assert first.resumed_stages == []
        assert all(first.provenance(s).resumed_from is None for s in "abc")
        assert run.resumed_stages == ["a", "b", "c"]
        assert all(run.provenance(s).resumed_from == str(journal) for s in "abc")

    def test_corrupt_payload_reruns_only_that_stage(self, tmp_path):
        journal_path = tmp_path / "j.json"
        _graph()[0].run(seed=3, journal=journal_path)
        data = json.loads(journal_path.read_text())
        victim = next(e for e in data["entries"] if e["stage"] == "b")
        payload = Path(str(journal_path) + ".artifacts") / (
            victim["value_key"] + ".pkl"
        )
        payload.write_bytes(b"garbage")
        graph, calls = _graph()
        run = graph.run(seed=3, journal=journal_path)
        assert calls == ["b"]
        assert sorted(run.resumed_stages) == ["a", "c"]
        assert run.value("c") == 30

    def test_changed_seed_refuses_stale_journal(self, tmp_path):
        journal = tmp_path / "j.json"
        _graph()[0].run(seed=3, journal=journal)
        with pytest.raises(JournalError, match="different run"):
            _graph()[0].run(seed=4, journal=journal)

    def test_no_journal_is_the_old_contract(self):
        graph, calls = _graph()
        run = graph.run(seed=3)
        assert run.value("c") == 30
        assert run.resumed_stages == []


class TestStageFailure:
    def test_raising_stage_aborts_the_run(self, tmp_path):
        def boom(ctx, a):
            raise RuntimeError("nope")

        journal = tmp_path / "j.json"
        graph = PipelineGraph(
            "aborts", [Stage("a", lambda ctx: 10), Stage("b", boom, requires=("a",))]
        )
        with pytest.raises(RuntimeError, match="nope"):
            graph.run(journal=journal)
        # Only the stage that completed is journaled; a resume re-runs "b".
        assert RunJournal(journal).completed_stages() == ["a"]
