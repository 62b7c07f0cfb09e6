"""CLI-level observability: the ``--serve`` endpoints.

The in-process tests (``tests/observability/``) pin each component;
these pin the *wiring* — that the flags on ``repro run`` / ``repro
sweep`` actually stand up a live plane, that it keeps serving while it
lingers, and that serving leaves the spikes untouched.

Live-server tests run the CLI in a subprocess (the plane must be up
*while* we probe it) and discover the ephemeral port through
``--serve-port-file`` — the same recipe as the CI smoke job.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

from repro.frontend import build_simulation
from repro.workloads import spec_for

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _spawn_cli(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_port(port_file, process, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"CLI exited early ({process.returncode}):\n"
                f"{process.stdout.read()}"
            )
        if os.path.exists(port_file):
            content = open(port_file, encoding="utf-8").read().strip()
            if content:
                return int(content)
        time.sleep(0.05)
    raise AssertionError("port file never appeared")


def _fetch(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _wait_until_finished(base, timeout=60.0):
    """Poll ``/status`` until the run reports ``finished``; return it."""
    deadline = time.monotonic() + timeout
    status = {}
    while time.monotonic() < deadline:
        status = json.loads(_fetch(f"{base}/status"))
        if status.get("state") == "finished":
            break
        time.sleep(0.1)
    return status


def _finish(process, timeout=60.0):
    """Interrupt a lingering CLI and return (exit_code, output)."""
    # "finished" is published before the write-out (stats, ledger
    # fsync) that precedes the linger; a SIGINT landing in that window
    # is an unhandled KeyboardInterrupt (exit -2), which failed about
    # one run in four of this file. Let the write-out finish first.
    time.sleep(0.5)
    process.send_signal(signal.SIGINT)
    try:
        output = process.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        process.kill()
        raise
    return process.returncode, output


class TestServeFlag:
    def test_run_serve_exposes_live_plane(self, tmp_path):
        port_file = str(tmp_path / "port")
        stats_path = tmp_path / "run.json"
        process = _spawn_cli(
            [
                "run", "Brunel", "--scale", "0.02", "--steps", "300",
                "--backend", "reference", "--seed", "3",
                "--stats-json", str(stats_path),
                "--serve", ":0", "--serve-port-file", port_file,
                "--serve-linger", "120",
            ],
            cwd=str(tmp_path),
        )
        try:
            port = _wait_for_port(port_file, process)
            base = f"http://127.0.0.1:{port}"
            assert _fetch(f"{base}/healthz") == "ok\n"
            # sim_steps_total is published at collect time — wait for
            # the run to finish (the plane keeps serving while it
            # lingers) before scraping for it.
            status = _wait_until_finished(base)
            assert status.get("state") == "finished", status
            assert status["network"] == "Brunel"
            assert _fetch(f"{base}/readyz") == "ok\n"
            metrics = _fetch(f"{base}/metrics")
            assert "sim_steps_total" in metrics
            assert "run_current_step" in metrics
            assert "process_resident_memory_bytes" in metrics
            # The ledger entry lands after "finished", before the linger.
            deadline = time.monotonic() + 30.0
            runs = json.loads(_fetch(f"{base}/runs"))["runs"]
            while not runs and time.monotonic() < deadline:
                time.sleep(0.1)
                runs = json.loads(_fetch(f"{base}/runs"))["runs"]
            assert [row["workload"] for row in runs] == ["Brunel"]
        finally:
            code, output = _finish(process)
        assert code == 0, output
        assert "observability plane at" in output
        # Serving leaves the spikes untouched.
        bare, _ = build_simulation(spec_for("Brunel", scale=0.02, seed=3))
        digest = bare.run(300).spikes.digest()
        assert json.loads(stats_path.read_text())["spike_digest"] == digest

    def test_sweep_serves_every_job(self, tmp_path):
        port_file = str(tmp_path / "port")
        stats_path = str(tmp_path / "sweep.json")
        process = _spawn_cli(
            [
                "sweep", "Brunel", "Vogels et al.", "--backend", "reference",
                "--scale", "0.05", "--steps", "300",
                "--stats-json", stats_path,
                "--serve", ":0", "--serve-port-file", port_file,
                "--serve-linger", "120",
            ],
            cwd=str(tmp_path),
        )
        try:
            port = _wait_for_port(port_file, process)
            base = f"http://127.0.0.1:{port}"
            _fetch(f"{base}/healthz")
            # The sweep is over once its stats are written; the plane
            # then shows the last job and keeps serving while it lingers.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if os.path.exists(stats_path):
                    break
                time.sleep(0.2)
            status = json.loads(_fetch(f"{base}/status"))
            assert status.get("state") == "finished", status
            assert status["network"] == "Vogels et al."
        finally:
            code, output = _finish(process)
        assert code == 0, output
        assert "sweep run ID: run-" in output
        assert "2/2 jobs completed" in output
        document = json.loads(open(stats_path, encoding="utf-8").read())
        assert [job["outcome"] for job in document["jobs"]] == [
            "completed", "completed",
        ]

    def test_linger_inf_serves_until_interrupted(self, tmp_path):
        port_file = str(tmp_path / "port")
        process = _spawn_cli(
            [
                "run", "Brunel", "--backend", "reference",
                "--scale", "0.02", "--steps", "300", "--no-ledger",
                "--serve", ":0", "--serve-port-file", port_file,
                "--serve-linger", "inf",
            ],
            cwd=str(tmp_path),
        )
        try:
            port = _wait_for_port(port_file, process)
            base = f"http://127.0.0.1:{port}"
            assert _wait_until_finished(base).get("state") == "finished"
            # Still serving a moment later: the linger has no deadline.
            time.sleep(1.5)
            assert _fetch(f"{base}/healthz") == "ok\n"
        finally:
            code, output = _finish(process)
        assert code == 0, output
        assert "serving for another infs (Ctrl-C to stop)" in output
        assert "stopping" in output

