"""Start and stop the HTTP plane behind a ``--serve`` flag."""

from __future__ import annotations

import time

from repro.health.resources import ResourceSampler
from repro.io import atomic_write_text
from repro.observability.server import ObservabilityServer, parse_serve_spec

__all__ = ["linger_plane", "start_plane"]


def start_plane(
    bind: str, port_file, metrics, status, bus,
    health_check=None, ready_check=None, ledger_path=None,
    alerts_source=None,
) -> ObservabilityServer:
    """Serve ``metrics`` / ``status`` / ``bus`` on ``bind``; print the URL.

    ``port_file`` receives the bound port (port 0 is ephemeral);
    ``ledger_path`` adds ``GET /runs``, ``alerts_source`` ``GET /alerts``.
    """
    host, port = parse_serve_spec(bind)
    resources = ResourceSampler()

    def metrics_text() -> str:
        # Publish-at-collect: the process's own RSS/CPU/fd gauges and
        # the bus's cumulative SSE drop tally are refreshed on each
        # scrape, so self-telemetry costs nothing between scrapes and a
        # slow /events consumer shows up on /metrics without touching
        # the hot path.
        resources.publish(metrics)
        metrics.counter(
            "sse_dropped_events_total",
            help="SSE events dropped across all subscribers "
            "(slow consumers lose events instead of blocking)",
        ).set_total(bus.dropped_total)
        # The registry is mutated by the simulation thread without
        # a lock shared with the HTTP threads; retry the (rare, benign)
        # dict-resized-during-iteration race instead of locking the hot
        # path.
        for _ in range(5):
            try:
                return metrics.to_prometheus()
            except RuntimeError:
                continue
        return ""

    runs_source = None
    if ledger_path:
        from repro.provenance import load_ledger, runs_document

        def runs_source():
            # Re-read per request: the ledger is append-only and may
            # be written by other concurrent repro commands.
            return runs_document(load_ledger(ledger_path))

    server = ObservabilityServer(
        metrics_text=metrics_text,
        status=status,
        bus=bus,
        health_check=health_check,
        ready_check=ready_check,
        host=host,
        port=port,
        runs_source=runs_source,
        alerts_source=alerts_source,
    )
    server.start()
    if port_file:
        atomic_write_text(port_file, f"{server.port}\n")
    endpoints = "/metrics /healthz /readyz /status" + (
        " /alerts" if alerts_source is not None else ""
    ) + (
        " /runs" if runs_source is not None else ""
    ) + " /events"
    print(f"observability plane at {server.url} ({endpoints})")
    return server


def linger_plane(server: ObservabilityServer, bus, linger: float) -> None:
    """Keep the plane serving ``linger`` more seconds, then stop it.

    While lingering, a 1 Hz ``tick`` event flows on the bus so SSE
    clients (and the CI smoke) always observe live frames, even when
    they connect after the work ended. Ctrl-C ends the linger early.
    """
    try:
        if linger <= 0:
            return
        print(f"serving for another {linger:g}s (Ctrl-C to stop)")
        deadline = time.monotonic() + linger
        while time.monotonic() < deadline:
            bus.publish("tick", {})
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nstopping")
    finally:
        server.stop()
