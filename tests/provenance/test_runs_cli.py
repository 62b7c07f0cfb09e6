"""``repro runs``: list/show/diff against a synthetic ledger, and against
entries the retired ``run --shards 2`` path and ``repro profile`` wrote."""

import json
import os

import pytest

from repro.cli import main
from repro.provenance import append_entry, make_entry

#: Two entries written at the commit before the process-backed sharded
#: run was cut (``run Brunel --backend reference --scale 0.05 --steps
#: 300 --seed 3``): ``--shards 2`` with a chaos kill and no restarts
#: (``shards: 2``, ``outcome: degraded``, three ``trace_rings``), then
#: the same run single-process.
OLD_LEDGER = os.path.join(
    os.path.dirname(__file__), "fixtures", "sharded_run_ledger.jsonl"
)
OLD_SHARDED, OLD_SINGLE = "run-7fc01ae74606", "run-6f2c2ba7738e"

#: Two entries written at the commit before ``repro profile`` was cut:
#: ``profile --quick --workloads Brunel --seed 3``, then ``run Brunel
#: --backend reference --scale 0.05 --steps 120 --seed 3``.
PROFILE_LEDGER = os.path.join(
    os.path.dirname(__file__), "fixtures", "profile_ledger.jsonl"
)
OLD_PROFILE, OLD_RUN = "run-23519c5c60d5", "run-c6e96bdb7772"


@pytest.fixture()
def ledger(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    append_entry(path, make_entry(
        "run", "run-aaaa11112222",
        {"workload": "Brunel", "seed": 3},
        workload="Brunel", backend="reference", steps=300,
        scale=0.05, seed=3, dt=1e-4, spike_digest="a" * 64,
        outcome="completed", duration=2.0,
    ))
    append_entry(path, make_entry(
        "run", "run-bbbb33334444",
        {"workload": "Brunel", "seed": 3, "shards": 2},
        workload="Brunel", backend="reference", steps=300,
        scale=0.05, seed=3, dt=1e-4, spike_digest="a" * 64,
        outcome="completed", duration=3.0,
    ))
    append_entry(path, make_entry(
        "run", "run-cccc55556666",
        {"workload": "Brunel", "seed": 99},
        workload="Brunel", backend="reference", steps=300,
        scale=0.05, seed=99, dt=1e-4, spike_digest="c" * 64,
        outcome="completed", duration=2.0,
    ))
    return path


class TestList:
    def test_lists_all_runs(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "list"]) == 0
        out = capsys.readouterr().out
        assert "run-aaaa11112222" in out
        assert "run-bbbb33334444" in out
        assert "3 of 3 run(s)" in out

    def test_kind_filter(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "list", "--kind", "sweep"]
        ) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_empty_ledger(self, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        assert main(["runs", "--ledger", path, "list"]) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_json_emits_one_entry_per_line_newest_first(
        self, ledger, capsys
    ):
        assert main(["runs", "--ledger", ledger, "list", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [e["run_id"] for e in entries] == [
            "run-cccc55556666", "run-bbbb33334444", "run-aaaa11112222",
        ]
        # Full machine-readable entries, not the table's summary rows.
        assert entries[0]["spike_digest"] == "c" * 64

    def test_json_respects_limit_and_kind_filter(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "list", "--json", "--limit", "1"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert main(
            ["runs", "--ledger", ledger, "list", "--json",
             "--kind", "sweep"]
        ) == 0
        assert capsys.readouterr().out.strip() == ""

    @pytest.mark.parametrize("limit", ["0", "-1"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_a_limit_below_one_is_refused(
        self, tmp_path, limit, json_flag, capsys
    ):
        # ``ordered[:-1]`` used to drop the oldest run without a word.
        # The check comes before the load: a directory is no ledger.
        assert main(
            ["runs", "--ledger", str(tmp_path), "list", "--limit", limit,
             *json_flag]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --limit must be >= 1, got {limit}\n"
        assert captured.out == ""

    def test_json_and_table_share_one_order(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "list", "--json", "--limit", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert main(["runs", "--ledger", ledger, "list", "--limit", "2"]) == 0
        table = capsys.readouterr().out
        ids = [json.loads(line)["run_id"] for line in lines]
        assert ids == ["run-cccc55556666", "run-bbbb33334444"]
        assert table.index(ids[0]) < table.index(ids[1])
        assert "run-aaaa11112222" not in table


class TestShow:
    def test_show_by_prefix_prints_entry_json(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "show", "run-aaaa"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["run_id"] == "run-aaaa11112222"
        assert entry["spike_digest"] == "a" * 64

    def test_show_omits_rings_unless_full(self, capsys):
        # Only entries of the retired sharded run carry span rings.
        assert main(["runs", "--ledger", OLD_LEDGER, "show", OLD_SHARDED]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["shards"] == entry["config"]["shards"] == 2
        assert entry["outcome"] == "degraded"
        assert "3 ring(s) omitted" in entry["trace_rings"]
        assert main(
            ["runs", "--ledger", OLD_LEDGER, "show", OLD_SHARDED, "--full"]
        ) == 0
        rings = json.loads(capsys.readouterr().out)["trace_rings"]
        assert [ring["label"] for ring in rings] == [
            "coordinator", "shard0#a0", "shard1#a0",
        ]

    def test_unknown_id_exits_2(self, ledger, capsys):
        assert main(["runs", "--ledger", ledger, "show", "run-zz"]) == 2
        assert "no ledger entry" in capsys.readouterr().err


class TestDiff:
    def test_matching_digests_exit_0(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "diff", "run-aaaa", "run-bbbb"]
        ) == 0
        out = capsys.readouterr().out
        assert "spike digests match" in out
        assert "shards" in out  # benign difference still listed

    def test_digest_divergence_exits_1(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "diff", "run-aaaa", "run-cccc"]
        ) == 1
        assert "SPIKE DIGEST DIVERGENCE" in capsys.readouterr().out

    def test_ambiguous_prefix_exits_2(self, ledger, capsys):
        assert main(
            ["runs", "--ledger", ledger, "diff", "run", "run-aaaa"]
        ) == 2
        assert "ambiguous" in capsys.readouterr().err


class TestEntriesOfTheRetiredShardedRun:
    def test_list_shows_the_shard_count_and_outcome(self, capsys):
        assert main(["runs", "--ledger", OLD_LEDGER, "list"]) == 0
        out = capsys.readouterr().out
        assert "2 of 2 run(s)" in out
        (sharded,) = [line for line in out.splitlines() if OLD_SHARDED in line]
        assert "degraded" in sharded and " 2 " in sharded

    def test_diff_against_the_single_process_entry(self, capsys):
        assert main(
            ["runs", "--ledger", OLD_LEDGER, "diff", OLD_SINGLE, OLD_SHARDED]
        ) == 0
        out = capsys.readouterr().out
        assert "shards" in out and "outcome" in out
        assert "spike digests match" in out

    def test_trace_is_no_longer_a_runs_action(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["runs", "--ledger", OLD_LEDGER, "trace", OLD_SHARDED])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEntriesOfTheRetiredProfile:
    def test_list_shows_the_profile_entry(self, capsys):
        assert main(
            ["runs", "--ledger", PROFILE_LEDGER, "list", "--kind", "profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 of 1 run(s)" in out
        (row,) = [line for line in out.splitlines() if OLD_PROFILE in line]
        assert "profile" in row and "Brunel" in row

    def test_show_prints_the_whole_entry(self, capsys):
        assert main(["runs", "--ledger", PROFILE_LEDGER, "show", OLD_PROFILE]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "profile"
        assert entry["config"]["reps"] == 2
        assert entry["artifacts"] == {"output": "BENCH_profile.json"}

    def test_diff_against_a_run_entry(self, capsys):
        assert main(
            ["runs", "--ledger", PROFILE_LEDGER, "diff", OLD_PROFILE, OLD_RUN]
        ) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "config_digest" in out
        assert "spike digest not recorded for both runs" in out
