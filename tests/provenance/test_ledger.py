"""The run ledger: run ids, atomic appends, torn lines, lookup, diff."""

import json
import threading

import pytest

from repro.errors import ReproError
from repro.io import append_jsonl, load_jsonl
from repro.provenance import (
    LEDGER_SCHEMA,
    append_entry,
    config_digest,
    diff_entries,
    find_entry,
    load_ledger,
    make_entry,
    new_run_id,
    runs_document,
    summarize_entry,
)


def _entry(run_id="run-a", **overrides):
    kwargs = dict(
        workload="Brunel", backend="reference", steps=100,
        scale=0.05, seed=3, dt=1e-4, spike_digest="d" * 64,
        outcome="completed", duration=1.5,
    )
    kwargs.update(overrides)
    return make_entry("run", run_id, {"seed": kwargs["seed"]}, **kwargs)


class TestRunId:
    def test_format(self):
        run_id = new_run_id()
        assert run_id.startswith("run-")
        assert len(run_id) == 4 + 12
        int(run_id[4:], 16)  # the suffix is hex

    def test_unique(self):
        assert new_run_id() != new_run_id()


class TestConfigDigest:
    def test_key_order_is_canonical(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )

    def test_value_changes_change_the_digest(self):
        assert config_digest({"seed": 1}) != config_digest({"seed": 2})

    def test_non_json_values_stringify(self):
        config_digest({"path": object()})  # must not raise


class TestMakeEntry:
    def test_schema_and_required_fields(self):
        entry = _entry()
        assert entry["schema"] == LEDGER_SCHEMA == "repro-ledger/1"
        assert entry["run_id"] == "run-a"
        assert entry["kind"] == "run"
        assert entry["config_digest"] == config_digest(entry["config"])
        json.dumps(entry)

    def test_empty_artifacts_are_filtered(self):
        entry = _entry()
        entry2 = make_entry(
            "run", "run-b", {},
            artifacts={"trace": None, "stats_json": "s.json", "x": ""},
        )
        assert entry2["artifacts"] == {"stats_json": "s.json"}
        assert entry["artifacts"] == {}


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_entry(path, _entry("run-1"))
        append_entry(path, _entry("run-2"))
        entries = load_ledger(path)
        assert [e["run_id"] for e in entries] == ["run-1", "run-2"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_ledger(str(tmp_path / "absent.jsonl")) == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_entry(str(path), _entry("run-1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-ledger/1", "run_id": "run-t')
        entries = load_ledger(str(path))
        assert [e["run_id"] for e in entries] == ["run-1"]

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_jsonl(path, {"schema": "repro-bench/1", "x": 1})
        append_entry(path, _entry("run-1"))
        assert len(load_ledger(path)) == 1

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        per_thread, threads = 25, 8

        def writer(worker):
            for index in range(per_thread):
                append_entry(path, _entry(f"run-{worker}-{index}"))

        pool = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        entries = load_ledger(path)
        assert len(entries) == per_thread * threads
        assert len({e["run_id"] for e in entries}) == per_thread * threads


class TestLoadJsonl:
    def test_blank_and_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('\n{"a": 1}\nnot json\n[1, 2]\n{"b": 2}\n')
        assert load_jsonl(str(path)) == [{"a": 1}, {"b": 2}]


class TestFindEntry:
    def test_exact_match(self):
        entries = [_entry("run-aa"), _entry("run-ab")]
        assert find_entry(entries, "run-ab")["run_id"] == "run-ab"

    def test_unique_prefix(self):
        entries = [_entry("run-aa11"), _entry("run-ab22")]
        assert find_entry(entries, "run-ab")["run_id"] == "run-ab22"

    def test_repeated_id_resolves_to_latest(self):
        old = _entry("run-aa", outcome="failed")
        new = _entry("run-aa")
        assert find_entry([old, new], "run-aa")["outcome"] == "completed"

    def test_ambiguous_prefix_lists_candidates(self):
        entries = [_entry("run-aa11"), _entry("run-aa22")]
        with pytest.raises(ReproError, match="run-aa11.*run-aa22"):
            find_entry(entries, "run-aa")

    def test_no_match_is_an_error(self):
        with pytest.raises(ReproError, match="no ledger entry"):
            find_entry([_entry("run-aa")], "run-zz")


class TestDiffEntries:
    def test_identical_entries_have_no_differences(self):
        entry = _entry()
        assert diff_entries(entry, entry) == []

    def test_digest_divergence_is_reported(self):
        a = _entry(spike_digest="a" * 64)
        b = _entry(spike_digest="b" * 64)
        fields = [field for field, _, _ in diff_entries(a, b)]
        assert fields == ["spike_digest"]

    def test_benign_and_alarming_fields_both_surface(self):
        a = _entry(backend="reference", spike_digest="a" * 64)
        b = _entry(backend="folded", spike_digest="b" * 64)
        fields = [field for field, _, _ in diff_entries(a, b)]
        assert fields == ["backend", "spike_digest"]


class TestRunsDocument:
    def test_newest_first_and_limit(self):
        entries = [_entry(f"run-{i}") for i in range(3)]
        entries[0]["ts"], entries[1]["ts"], entries[2]["ts"] = 1.0, 3.0, 2.0
        document = runs_document(entries, limit=2)
        assert document["n_runs"] == 3
        assert [row["run_id"] for row in document["runs"]] == [
            "run-1", "run-2",
        ]

    def test_summaries_truncate_digests(self):
        row = summarize_entry(_entry(spike_digest="e" * 64))
        assert row["spike_digest"] == "e" * 12
        assert row["run_id"] == "run-a"

    def test_summary_tolerates_missing_digests(self):
        row = summarize_entry(make_entry("run", "run-x", {}))
        assert row["spike_digest"] is None
