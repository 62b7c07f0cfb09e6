"""Integration test: SIGINT/SIGTERM on a real ``repro run`` process.

Spawns ``python -m repro run``, waits for the run to start, delivers a
signal, and checks the documented contract: a clean message instead of
a traceback, the conventional exit code (130/143), a loadable final
checkpoint, and a partial ``--stats-json`` document.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _spawn_run(tmp_path):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run", "Izhikevich",
            "--backend", "reference", "--scale", "0.05",
            "--steps", "2000000",
            "--checkpoint-path", str(tmp_path / "final.ckpt"),
            "--stats-json", str(tmp_path / "stats.json"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


def _interrupt_once_running(process, signum):
    """Wait for the run loop to start, then deliver the signal."""
    for line in process.stdout:
        if "built at scale" in line:
            time.sleep(0.5)  # let the step loop actually start
            process.send_signal(signum)
            break
    else:  # pragma: no cover - the run never started
        pytest.fail("run produced no startup banner")
    out, _ = process.communicate(timeout=120)
    return out


class TestGracefulInterrupt:
    def test_sigint_checkpoints_and_exits_130(self, tmp_path):
        process = _spawn_run(tmp_path)
        out = _interrupt_once_running(process, signal.SIGINT)

        assert process.returncode == 130
        assert "interrupted by SIGINT" in out
        assert "Traceback" not in out

        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["partial"] is True
        assert stats["interrupted"]["signal"] == "SIGINT"
        assert stats["interrupted"]["exit_code"] == 130
        assert stats["n_steps"] > 0

        from repro.reliability import Checkpoint

        checkpoint = Checkpoint.load(tmp_path / "final.ckpt")
        assert checkpoint.step == stats["interrupted"]["step"]

        # The interrupted run still leaves its one ledger entry, with
        # the fields and config digest the parent commit recorded for
        # the same arguments.
        (entry,) = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl").read_text().splitlines()
        ]
        assert set(entry) == {
            "schema", "run_id", "ts", "timestamp", "kind", "workload",
            "backend", "shards", "steps", "scale", "seed", "dt",
            "config_digest", "config", "spike_digest", "outcome",
            "duration", "metrics", "artifacts",
        }
        assert entry["config_digest"] == (
            "6fb729a15a5b4613acb622c92eea15d8"
            "93866118fb7a6ce5296cfc07080934a6"
        )
        assert entry["config"]["steps"] == 2000000
        assert entry["steps"] == stats["interrupted"]["step"]
        assert entry["outcome"] == "interrupted (SIGINT)"
        assert entry["spike_digest"] is None and entry["metrics"] == {}
        assert entry["artifacts"] == {
            "stats_json": str(tmp_path / "stats.json"),
            "checkpoint": str(tmp_path / "final.ckpt"),
        }
        assert entry["run_id"] == stats["run_id"]

    def test_sigterm_exits_143(self, tmp_path):
        process = _spawn_run(tmp_path)
        out = _interrupt_once_running(process, signal.SIGTERM)

        assert process.returncode == 143
        assert "interrupted by SIGTERM" in out
        assert (tmp_path / "final.ckpt").exists()
