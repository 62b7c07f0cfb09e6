"""The HTTP plane: spec parsing, status board, endpoints."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.observability.server import (
    ObservabilityServer,
    StatusBoard,
    parse_serve_spec,
)


class TestParseServeSpec:
    def test_bare_port_defaults_to_loopback(self):
        assert parse_serve_spec("8080") == ("127.0.0.1", 8080)

    def test_colon_port(self):
        assert parse_serve_spec(":9090") == ("127.0.0.1", 9090)

    def test_host_and_port(self):
        assert parse_serve_spec("0.0.0.0:7070") == ("0.0.0.0", 7070)

    def test_port_zero_allowed(self):
        assert parse_serve_spec(":0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["", "abc", "host:", "host:port", ":70000"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_serve_spec(bad)


class TestStatusBoard:
    def test_update_and_snapshot(self):
        status = StatusBoard(state="starting")
        status.update(current_step=10, steps_per_sec=100.0)
        snapshot = status.snapshot()
        assert snapshot["state"] == "starting"
        assert snapshot["current_step"] == 10
        assert snapshot["updated_ts"] > 0

    def test_snapshot_isolated_from_later_updates(self):
        status = StatusBoard()
        status.update(phases={"neuron": {"p50_us": 1.0}})
        snapshot = status.snapshot()
        status.update(phases={"neuron": {"p50_us": 9.0}})
        assert snapshot["phases"]["neuron"]["p50_us"] == 1.0


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8"), dict(
            response.headers
        )


class TestObservabilityServer:
    def test_endpoints_end_to_end(self):
        status = StatusBoard(state="running")
        server = ObservabilityServer(
            metrics_text=lambda: "# TYPE up gauge\nup 1\n",
            status=status,
            port=0,
        )
        with server:
            code, body, headers = _get(f"{server.url}/metrics")
            assert code == 200
            assert "up 1" in body
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )

            code, body, _ = _get(f"{server.url}/healthz")
            assert (code, body) == (200, "ok\n")
            code, body, _ = _get(f"{server.url}/readyz")
            assert code == 200

            code, body, _ = _get(f"{server.url}/status")
            snapshot = json.loads(body)
            assert snapshot["state"] == "running"
            assert set(snapshot) == {"state", "updated_ts"}

            code, body, _ = _get(f"{server.url}/")
            assert code == 200 and "/metrics" in body

            for gone in ("/events", "/alerts"):
                with pytest.raises(urllib.error.HTTPError) as caught:
                    _get(f"{server.url}{gone}")
                assert caught.value.code == 404

    def test_unknown_path_is_404(self):
        with ObservabilityServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server.url}/nope")
            assert caught.value.code == 404

    def test_failing_probe_is_503_with_reason(self):
        server = ObservabilityServer(
            health_check=lambda: (False, "breaker open"), port=0
        )
        with server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server.url}/healthz")
            assert caught.value.code == 503
            assert "breaker open" in caught.value.read().decode("utf-8")

    def test_raising_probe_is_unhealthy_not_fatal(self):
        def broken():
            raise RuntimeError("probe exploded")

        with ObservabilityServer(ready_check=broken, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server.url}/readyz")
            assert caught.value.code == 503

    def test_runs_endpoint_serves_the_ledger_document(self):
        document = {
            "schema": "repro-runs/1",
            "n_runs": 2,
            "runs": [{"run_id": "run-b"}, {"run_id": "run-a"}],
        }
        with ObservabilityServer(
            runs_source=lambda: document, port=0
        ) as server:
            code, body, _ = _get(f"{server.url}/runs")
            assert code == 200
            assert json.loads(body) == document

            code, body, _ = _get(f"{server.url}/runs?limit=1")
            truncated = json.loads(body)
            assert truncated["n_runs"] == 2
            assert [row["run_id"] for row in truncated["runs"]] == ["run-b"]

            code, body, _ = _get(f"{server.url}/")
            assert "/runs" in body

    def test_runs_endpoint_bad_limit_is_400(self):
        with ObservabilityServer(
            runs_source=lambda: {"runs": []}, port=0
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server.url}/runs?limit=soon")
            assert caught.value.code == 400

    def test_runs_endpoint_without_ledger_is_404(self):
        with ObservabilityServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server.url}/runs")
            assert caught.value.code == 404
            assert "no run ledger" in caught.value.read().decode("utf-8")

    def test_double_start_rejected(self):
        server = ObservabilityServer(port=0)
        with server:
            with pytest.raises(ConfigurationError):
                server.start()

    def test_bind_conflict_is_configuration_error(self):
        with ObservabilityServer(port=0) as server:
            with pytest.raises(ConfigurationError):
                ObservabilityServer(port=server.port).start()

    def test_stop_is_idempotent_and_frees_the_port(self):
        server = ObservabilityServer(port=0)
        server.start()
        port = server.port
        server.stop()
        server.stop()
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()


class TestStatusBoardConcurrency:
    def test_concurrent_updates_keep_every_key(self):
        status = StatusBoard(state="running")
        n_writers, n_rounds = 8, 50
        errors = []

        def writer(index):
            try:
                for round_no in range(n_rounds):
                    status.update(**{f"writer_{index}": {"step": round_no}})
                    status.snapshot()
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(n_writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        snapshot = status.snapshot()
        # Every key holds its own writer's final round — no torn rows.
        assert all(
            snapshot[f"writer_{i}"] == {"step": n_rounds - 1}
            for i in range(n_writers)
        )
