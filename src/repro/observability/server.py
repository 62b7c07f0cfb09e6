"""The stdlib HTTP plane: metrics, health, status and the run ledger.

``--serve`` on ``repro run`` / ``repro sweep`` exposes a running
simulation the way a production service would — scrapeable and
probeable — using nothing beyond the standard library:

``GET /metrics``
    Prometheus text exposition, straight from the run's
    :class:`~repro.telemetry.registry.MetricsRegistry` (the format is
    the registry's own ``to_prometheus``; nothing is re-encoded here).
``GET /healthz``
    Liveness: 200 while the process and its runtimes are numerically
    sound, 503 with a reason otherwise (backed by the runtimes'
    ``health()`` screens).
``GET /readyz``
    Readiness: 200 once the run/sweep has started doing work.
``GET /status``
    A JSON snapshot of the :class:`StatusBoard`: run state, progress,
    throughput, per-phase p50/p95 and per-population ops/sec.
``GET /runs``
    The run-provenance ledger (schema ``repro-ledger/1``) as compact
    summaries, newest first — the HTTP face of ``repro runs list``.
    404 when the plane has no ledger attached; ``?limit=N`` caps the
    rows returned.

Design constraints, in order: never slow the simulation (the run only
writes the board; requests read it), never lie (snapshots are taken
under the board's lock), and never add a dependency (``http.server`` +
``threading`` only).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "ObservabilityServer",
    "StatusBoard",
    "parse_serve_spec",
]


def parse_serve_spec(spec: str) -> Tuple[str, int]:
    """Parse ``PORT`` / ``:PORT`` / ``HOST:PORT`` into (host, port).

    Port 0 asks the kernel for an ephemeral port (the bound port is in
    :attr:`ObservabilityServer.port` after ``start``). The default
    host is loopback — an observability plane should not be exposed
    beyond the machine without an explicit opt-in.
    """
    host, _, port_text = spec.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"invalid serve spec {spec!r}: expected PORT, :PORT or HOST:PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(
            f"invalid serve port {port}: must be in [0, 65535]"
        )
    return host, port


class StatusBoard:
    """A thread-safe dict the run updates and ``/status`` snapshots.

    Writers (the simulation thread) call :meth:`update`
    with partial payloads; readers get a consistent deep-enough copy —
    top-level and one nested dict level are copied, which covers every
    payload this repo publishes.
    """

    def __init__(self, **initial) -> None:
        self._lock = threading.Lock()
        self._data: Dict[str, object] = dict(initial)
        self._updated = 0.0

    def update(self, **fields) -> None:
        with self._lock:
            self._data.update(fields)
            self._updated = time.time()

    def snapshot(self) -> dict:
        with self._lock:
            out: Dict[str, object] = {}
            for key, value in self._data.items():
                out[key] = dict(value) if isinstance(value, dict) else value
            out["updated_ts"] = self._updated
            return out


class _Handler(BaseHTTPRequestHandler):
    """Routes the plane's endpoints; everything else is 404."""

    #: Set by ObservabilityServer at construction time.
    plane: "ObservabilityServer"

    server_version = "repro-observability/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Server access logs stay off stdout (they'd corrupt CLI output)."""

    # -- helpers -----------------------------------------------------------

    def _respond(
        self, code: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_text(self, code: int, text: str) -> None:
        self._respond(code, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _respond_json(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._respond(code, body, "application/json")

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, _, query = self.path.partition("?")
        try:
            if path == "/metrics":
                self._serve_metrics()
            elif path == "/healthz":
                self._serve_probe(self.plane.health_check)
            elif path == "/readyz":
                self._serve_probe(self.plane.ready_check)
            elif path == "/status":
                self._respond_json(200, self.plane.status.snapshot())
            elif path == "/runs":
                self._serve_runs(query)
            elif path == "/":
                self._respond_text(
                    200,
                    "repro observability plane\n"
                    "endpoints: /metrics /healthz /readyz /status /runs\n",
                )
            else:
                self._respond_text(404, f"unknown path {path}\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    # -- endpoints ---------------------------------------------------------

    def _serve_metrics(self) -> None:
        text = self.plane.metrics_text()
        self._respond(
            200,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _serve_runs(self, query: str) -> None:
        source = self.plane.runs_source
        if source is None:
            self._respond_text(404, "no run ledger attached\n")
            return
        limit: Optional[int] = None
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "limit":
                try:
                    limit = max(0, int(value))
                except ValueError:
                    self._respond_text(400, f"bad limit {value!r}\n")
                    return
        document = source()
        if limit is not None and isinstance(document.get("runs"), list):
            document = dict(document)
            document["runs"] = document["runs"][:limit]
        self._respond_json(200, document)

    def _serve_probe(self, check: Callable[[], Tuple[bool, str]]) -> None:
        try:
            ok, reason = check()
        except Exception as error:  # a broken probe is an unhealthy probe
            ok, reason = False, f"probe raised {error!r}"
        if ok:
            self._respond_text(200, "ok\n")
        else:
            self._respond_text(503, f"unavailable: {reason}\n")


def _default_health() -> Tuple[bool, str]:
    return True, ""


class ObservabilityServer:
    """The HTTP plane, served from a daemon thread.

    Parameters
    ----------
    metrics_text:
        Zero-argument callable returning the Prometheus exposition
        body (typically ``registry.to_prometheus``, wrapped in a lock
        when other threads mutate the registry).
    status:
        The :class:`StatusBoard` behind ``GET /status``.
    health_check / ready_check:
        Zero-argument callables returning ``(ok, reason)``; failures
        surface as 503 with the reason in the body.
    runs_source:
        Zero-argument callable returning the ``repro-ledger/1`` runs
        document behind ``GET /runs`` (typically a fresh
        :func:`repro.provenance.runs_document` over the ledger file,
        re-read per request so concurrent appenders show up). ``None``
        leaves the endpoint 404.
    """

    def __init__(
        self,
        metrics_text: Optional[Callable[[], str]] = None,
        status: Optional[StatusBoard] = None,
        health_check: Optional[Callable[[], Tuple[bool, str]]] = None,
        ready_check: Optional[Callable[[], Tuple[bool, str]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        runs_source: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.metrics_text = metrics_text or (lambda: "")
        self.status = status if status is not None else StatusBoard()
        self.health_check = health_check or _default_health
        self.ready_check = ready_check or _default_health
        self.runs_source = runs_source
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve in a daemon thread; returns (host, port)."""
        if self._httpd is not None:
            raise ConfigurationError("observability server already started")
        handler = type("_BoundHandler", (_Handler,), {"plane": self})
        try:
            self._httpd = ThreadingHTTPServer(
                (self._host, self._requested_port), handler
            )
        except OSError as error:
            raise ConfigurationError(
                f"cannot bind observability server on "
                f"{self._host}:{self._requested_port}: {error}"
            ) from error
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-observability",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        """Stop serving; idempotent."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- address -----------------------------------------------------------

    @property
    def host(self) -> str:
        if self._httpd is not None:
            return self._httpd.server_address[0]
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after ``start``)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
