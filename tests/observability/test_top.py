"""``repro top``: rendering, fetching, and the refresh loop."""

import io

import pytest

from repro.errors import ReproError
from repro.observability.server import ObservabilityServer, StatusBoard
from repro.observability.top import CLEAR, fetch_status, format_top, run_top


def _run_status():
    return {
        "state": "running",
        "network": "Brunel",
        "current_step": 250,
        "n_steps_planned": 1000,
        "steps_per_sec": 123.4,
        "phases": {
            "stimulus": {"p50_us": 10.0, "p95_us": 20.0},
            "neuron": {"p50_us": 100.0, "p95_us": 250.0},
            "synapse": {"p50_us": 50.0, "p95_us": 80.0},
        },
        "populations": {
            "excitatory": {"neurons": 800, "ops_per_sec": 98720.0},
            "inhibitory": {
                "neurons": 200,
                "ops_per_sec": 24680.0,
                "p50_us": 42.0,
                "p95_us": 99.0,
            },
        },
        "updated_ts": 1.0,
    }


class TestFormatTop:
    def test_run_view_renders_every_section(self):
        frame = format_top(_run_status())
        assert "Brunel [running]" in frame
        assert "step 250 / 1,000 ( 25.0%)" in frame
        assert "123.4 steps/s" in frame
        assert "neuron" in frame and "250.0us" in frame
        assert "excitatory" in frame and "98.7k" in frame
        # Populations without kernel spans show dashes, not zeros.
        excitatory_line = next(
            line for line in frame.splitlines() if "excitatory" in line
        )
        assert "-" in excitatory_line
        inhibitory_line = next(
            line for line in frame.splitlines() if "inhibitory" in line
        )
        assert "42.0us" in inhibitory_line
        assert "updated" in frame

    def test_empty_status_still_renders_header(self):
        frame = format_top({})
        assert "? [unknown]" in frame


class TestFetchStatus:
    def test_fetches_live_status(self):
        status = StatusBoard(state="running")
        with ObservabilityServer(status=status, port=0) as server:
            document = fetch_status(server.url)
        assert document["state"] == "running"

    def test_unreachable_server_raises_repro_error(self):
        with pytest.raises(ReproError):
            fetch_status("http://127.0.0.1:1", timeout=0.5)


class TestRunTop:
    def test_once_prints_single_frame_without_clear(self):
        status = StatusBoard(state="running", network="Brunel")
        with ObservabilityServer(status=status, port=0) as server:
            out = io.StringIO()
            code = run_top(server.url, iterations=1, stream=out)
        assert code == 0
        assert "Brunel [running]" in out.getvalue()
        assert CLEAR not in out.getvalue()

    def test_refresh_clears_between_frames(self):
        status = StatusBoard(state="running", network="Brunel")
        with ObservabilityServer(status=status, port=0) as server:
            out = io.StringIO()
            code = run_top(server.url, interval=0.01, iterations=3, stream=out)
        assert code == 0
        assert out.getvalue().count(CLEAR) == 2

    def test_no_clear_flag(self):
        status = StatusBoard()
        with ObservabilityServer(status=status, port=0) as server:
            out = io.StringIO()
            run_top(
                server.url, interval=0.01, iterations=2, stream=out,
                clear=False,
            )
        assert CLEAR not in out.getvalue()

    def test_server_going_away_after_first_frame_is_clean_exit(self):
        status = StatusBoard(state="running")
        server = ObservabilityServer(status=status, port=0)
        server.start()
        url = server.url
        out = io.StringIO()
        frames = {"count": 0}

        original_fetch = fetch_status

        def fetch_then_kill(target, timeout=5.0):
            document = original_fetch(target, timeout=timeout)
            frames["count"] += 1
            server.stop()  # the run finished; the plane shut down
            return document

        import repro.observability.top as top_module

        original = top_module.fetch_status
        top_module.fetch_status = fetch_then_kill
        try:
            code = run_top(url, interval=0.01, iterations=None, stream=out)
        finally:
            top_module.fetch_status = original
            server.stop()
        assert code == 0
        assert frames["count"] == 1
        assert "server went away" in out.getvalue()

    def test_unreachable_server_on_first_fetch_raises(self):
        with pytest.raises(ReproError):
            run_top("http://127.0.0.1:1", iterations=1, stream=io.StringIO())


class TestFormatTopHealthPanes:
    def test_alert_pane_renders_counts_and_active_lines(self):
        frame = format_top({
            "state": "running",
            "network": "Brunel",
            "alerts": {
                "rules": 8,
                "pending": 1,
                "firing": 2,
                "resolved": 3,
                "fired_total": 5,
                "active": [
                    "[critical] exploding-rate (exc): 99.0 Hz vs 1.2 Hz",
                ],
            },
        })
        assert "alerts: 2 firing, 1 pending, 3 resolved (8 rule(s))" in frame
        assert "  ! [critical] exploding-rate (exc): 99.0 Hz vs 1.2 Hz" in frame

    def test_sse_pane_renders_drop_accounting(self):
        frame = format_top({
            "state": "running",
            "network": "Brunel",
            "sse": {
                "subscribers": 2,
                "published_total": 41,
                "dropped_events_total": 7,
            },
        })
        assert "sse: 2 subscriber(s), 41 event(s) published, 7 dropped" in frame

    def test_panes_absent_when_blocks_missing(self):
        frame = format_top({"state": "running", "network": "Brunel"})
        assert "alerts:" not in frame
        assert "sse:" not in frame
