"""The observability plane: live insight into running simulations.

``MetricsRegistry`` snapshots, trace files and sweep reports are
written after a run ends; this package serves a run while it executes
(see DESIGN.md's "Observability plane"):

* :mod:`repro.observability.server` — a dependency-free stdlib HTTP
  server exposing ``GET /metrics`` (Prometheus text exposition),
  ``GET /healthz`` / ``GET /readyz``, ``GET /status`` (JSON snapshot)
  and ``GET /runs`` (the ledger), plus the
  :class:`~repro.observability.server.StatusBoard` ``/status`` reads;
* :mod:`repro.observability.hooks` — :class:`ServeHook`, the
  :class:`~repro.engine.hooks.PhaseHook` that feeds a live run's
  progress into the status board and the metrics registry without
  taxing the hot loop;
* :mod:`repro.observability.resources` — the ``process_*`` RSS / CPU /
  open-fd families ``/metrics`` publishes at each scrape;
* :mod:`repro.observability.plane` — start and stop the server behind
  ``--serve``.

Exports resolve lazily (PEP 562, like :mod:`repro.reliability`): an
eager init would make every importer pay
for ``http.server`` and the hook stack.
"""

import importlib

_EXPORTS = {
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
