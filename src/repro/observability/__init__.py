"""The observability plane: live insight into running simulations.

``MetricsRegistry`` snapshots, trace files and sweep reports are
written after a run ends; this package serves a run while it executes
(see DESIGN.md's "Observability plane"):

* :mod:`repro.observability.server` — a dependency-free stdlib HTTP
  server exposing ``GET /metrics`` (Prometheus text exposition),
  ``GET /healthz`` / ``GET /readyz``, ``GET /status`` (JSON snapshot),
  and ``GET /events`` (an SSE stream, schema ``repro-events/1``),
  plus the :class:`~repro.observability.server.EventBus` and
  :class:`~repro.observability.server.StatusBoard` the endpoints read;
* :mod:`repro.observability.hooks` — :class:`ServeHook`, the
  :class:`~repro.engine.hooks.PhaseHook` that feeds a live run's
  progress into the status board, the event bus, and the metrics
  registry without taxing the hot loop when idle;
* :mod:`repro.observability.top` — the ``repro top`` console view of
  the ``/status`` + ``/events`` feed (imported by the CLI, not
  re-exported here: it pulls in ``urllib``).

Exports resolve lazily (PEP 562, like :mod:`repro.supervision` and
:mod:`repro.reliability`): an eager init would make every importer pay
for ``http.server`` and the hook stack.
"""

import importlib

_EXPORTS = {
    "EVENTS_SCHEMA": "repro.observability.server",
    "EventBus": "repro.observability.server",
    "ObservabilityServer": "repro.observability.server",
    "ServeHook": "repro.observability.hooks",
    "StatusBoard": "repro.observability.server",
    "parse_serve_spec": "repro.observability.server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
