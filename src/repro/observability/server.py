"""The stdlib HTTP plane: metrics, health, status, and live events.

``--serve`` on ``repro run`` / ``repro sweep`` exposes a running
simulation the way a production service would —
scrapeable, probeable, and streamable — using nothing beyond the
standard library:

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
    A JSON snapshot of the :class:`StatusBoard` — the same document
    ``repro top`` renders — plus an ``sse`` block with the event
    bus's publish/drop accounting (per-subscriber ``dropped_events``
    included, so a slow consumer is visible from the outside).
``GET /runs``
    The run-provenance ledger (schema ``repro-ledger/1``) as compact
    summaries, newest first — the HTTP face of ``repro runs list``.
    404 when the plane has no ledger attached; ``?limit=N`` caps the
    rows returned.
``GET /alerts``
    The health layer's alert document (schema ``repro-alerts/1``):
    every rule, every alert instance with its pending/firing/resolved
    state and bounded transition history. 404 when the run carries no
    alert rules (``--alerts`` not given).
``GET /events``
    A Server-Sent Events stream (schema ``repro-events/1``) of
    run, progress and alert events published on the :class:`EventBus`.
    Events carry ``event:`` (the type), ``id:`` (monotone sequence)
    and a JSON ``data:`` payload; keep-alive comment lines flow while
    the bus is quiet so proxies and clients can tell silence from
    death.

Design constraints, in order: never slow the simulation (publishers
never block — a slow SSE consumer loses events, counted per
subscriber, rather than back-pressuring the hot loop), never lie
(snapshots are taken under the board's lock), and never add a
dependency (``http.server`` + ``threading`` only).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "EVENTS_SCHEMA",
    "EventBus",
    "ObservabilityServer",
    "StatusBoard",
    "parse_serve_spec",
]

EVENTS_SCHEMA = "repro-events/1"

#: Per-subscriber event queue depth; beyond it the subscriber loses
#: events (counted) instead of the publisher blocking.
SUBSCRIBER_QUEUE_DEPTH = 512

#: Seconds of bus silence before an SSE keep-alive comment is sent.
KEEPALIVE_SECONDS = 2.0


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


class EventBus:
    """Fan-out of structured events to any number of subscribers.

    ``publish`` is wait-free from the publisher's view: each
    subscriber owns a bounded queue, and a full queue drops the event
    for that subscriber (tallied in ``dropped``) rather than blocking
    the simulation thread.
    """

    def __init__(self, queue_depth: int = SUBSCRIBER_QUEUE_DEPTH) -> None:
        self._queue_depth = queue_depth
        self._lock = threading.Lock()
        self._subscribers: List["_Subscription"] = []
        self._seq = 0
        self.published_total = 0
        #: Cumulative events dropped across all subscribers, including
        #: ones that have since unsubscribed (tallied at drop time, so
        #: a departing slow consumer's losses are not forgotten).
        self.dropped_total = 0

    def publish(self, event_type: str, payload: Optional[dict] = None) -> dict:
        """Publish one event; returns the stamped event document."""
        event: Dict[str, object] = {
            "schema": EVENTS_SCHEMA,
            "type": event_type,
            "ts": time.time(),
        }
        if payload:
            event.update(payload)
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self.published_total += 1
            subscribers = list(self._subscribers)
        for subscription in subscribers:
            subscription.offer(event)
        return event

    def subscribe(self) -> "_Subscription":
        subscription = _Subscription(self, self._queue_depth)
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: "_Subscription") -> None:
        with self._lock:
            if subscription in self._subscribers:
                self._subscribers.remove(subscription)

    def _note_drop(self) -> None:
        with self._lock:
            self.dropped_total += 1

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def stats(self) -> dict:
        """Publish/drop accounting (the ``sse`` block on ``/status``)."""
        with self._lock:
            return {
                "subscribers": len(self._subscribers),
                "published_total": self.published_total,
                "dropped_events_total": self.dropped_total,
                "dropped_events": [s.dropped for s in self._subscribers],
            }


class _Subscription:
    """One subscriber's bounded event queue."""

    def __init__(self, bus: EventBus, depth: int) -> None:
        self._bus = bus
        self._queue: "queue.Queue[dict]" = queue.Queue(maxsize=depth)
        self.dropped = 0

    def offer(self, event: dict) -> None:
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1
            self._bus._note_drop()

    def get(self, timeout: float) -> Optional[dict]:
        """Next event, or ``None`` after ``timeout`` seconds of quiet."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self._bus._unsubscribe(self)

    def __enter__(self) -> "_Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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

    def merge(self, key: str, **fields) -> None:
        """Update one nested dict entry (e.g. a single job's row)."""
        with self._lock:
            nested = self._data.setdefault(key, {})
            if not isinstance(nested, dict):
                raise ConfigurationError(
                    f"status key {key!r} is not mergeable (holds "
                    f"{type(nested).__name__})"
                )
            nested.update(fields)
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
                snapshot = self.plane.status.snapshot()
                snapshot["sse"] = self.plane.bus.stats()
                self._respond_json(200, snapshot)
            elif path == "/runs":
                self._serve_runs(query)
            elif path == "/alerts":
                self._serve_alerts()
            elif path == "/events":
                self._serve_events()
            elif path == "/":
                self._respond_text(
                    200,
                    "repro observability plane\n"
                    "endpoints: /metrics /healthz /readyz /status /runs "
                    "/alerts /events\n",
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

    def _serve_alerts(self) -> None:
        source = self.plane.alerts_source
        if source is None:
            self._respond_text(404, "no alert rules attached\n")
            return
        self._respond_json(200, source())

    def _serve_probe(self, check: Callable[[], Tuple[bool, str]]) -> None:
        try:
            ok, reason = check()
        except Exception as error:  # a broken probe is an unhealthy probe
            ok, reason = False, f"probe raised {error!r}"
        if ok:
            self._respond_text(200, "ok\n")
        else:
            self._respond_text(503, f"unavailable: {reason}\n")

    def _serve_events(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream: no Content-Length, so the
        # connection (not keep-alive framing) delimits the body.
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b": stream open\n\n")
        self.wfile.flush()
        with self.plane.bus.subscribe() as subscription:
            while not self.plane.stopping.is_set():
                event = subscription.get(timeout=KEEPALIVE_SECONDS)
                if event is None:
                    self.wfile.write(b": keepalive\n\n")
                else:
                    data = json.dumps(event)
                    frame = (
                        f"event: {event['type']}\n"
                        f"id: {event['seq']}\n"
                        f"data: {data}\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()


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
    bus:
        The :class:`EventBus` behind ``GET /events``.
    health_check / ready_check:
        Zero-argument callables returning ``(ok, reason)``; failures
        surface as 503 with the reason in the body.
    runs_source:
        Zero-argument callable returning the ``repro-ledger/1`` runs
        document behind ``GET /runs`` (typically a fresh
        :func:`repro.provenance.runs_document` over the ledger file,
        re-read per request so concurrent appenders show up). ``None``
        leaves the endpoint 404.
    alerts_source:
        Zero-argument callable returning the ``repro-alerts/1`` alert
        document behind ``GET /alerts`` (typically an
        :class:`~repro.health.alerts.AlertManager`'s ``document``
        bound method). ``None`` leaves the endpoint 404.
    """

    def __init__(
        self,
        metrics_text: Optional[Callable[[], str]] = None,
        status: Optional[StatusBoard] = None,
        bus: Optional[EventBus] = None,
        health_check: Optional[Callable[[], Tuple[bool, str]]] = None,
        ready_check: Optional[Callable[[], Tuple[bool, str]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        runs_source: Optional[Callable[[], dict]] = None,
        alerts_source: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.metrics_text = metrics_text or (lambda: "")
        self.status = status if status is not None else StatusBoard()
        self.bus = bus if bus is not None else EventBus()
        self.health_check = health_check or _default_health
        self.ready_check = ready_check or _default_health
        self.runs_source = runs_source
        self.alerts_source = alerts_source
        self._host = host
        self._requested_port = port
        self.stopping = threading.Event()
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
        """Stop serving; idempotent. SSE streams close on their next tick."""
        self.stopping.set()
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
