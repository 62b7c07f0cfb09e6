"""Start and stop the HTTP plane behind a ``--serve`` flag."""

from __future__ import annotations

import time

from repro.io import atomic_write_text
from repro.observability.resources import ResourceSampler
from repro.observability.server import ObservabilityServer, parse_serve_spec

__all__ = ["linger_plane", "start_plane"]


def start_plane(
    bind: str, port_file, metrics, status,
    health_check=None, ready_check=None, ledger_path=None,
) -> ObservabilityServer:
    """Serve ``metrics`` / ``status`` on ``bind``; print the URL.

    ``port_file`` receives the bound port (port 0 is ephemeral);
    ``ledger_path`` adds ``GET /runs``.
    """
    host, port = parse_serve_spec(bind)
    resources = ResourceSampler()

    def metrics_text() -> str:
        # Publish-at-collect: the process's own RSS/CPU/fd gauges are
        # refreshed on each scrape, so self-telemetry costs nothing
        # between scrapes.
        resources.publish(metrics)
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
        health_check=health_check,
        ready_check=ready_check,
        host=host,
        port=port,
        runs_source=runs_source,
    )
    server.start()
    if port_file:
        atomic_write_text(port_file, f"{server.port}\n")
    endpoints = "/metrics /healthz /readyz /status" + (
        " /runs" if runs_source is not None else ""
    )
    print(f"observability plane at {server.url} ({endpoints})")
    return server


def linger_plane(server: ObservabilityServer, linger: float) -> None:
    """Keep the plane serving ``linger`` more seconds, then stop it.

    ``inf`` serves until Ctrl-C, which ends any linger early.
    """
    try:
        if linger <= 0:
            return
        print(f"serving for another {linger:g}s (Ctrl-C to stop)")
        deadline = time.monotonic() + linger
        # Bounded naps: time.sleep(inf) raises OverflowError.
        while (left := deadline - time.monotonic()) > 0:
            time.sleep(min(1.0, left))
    except KeyboardInterrupt:
        print("\nstopping")
    finally:
        server.stop()
