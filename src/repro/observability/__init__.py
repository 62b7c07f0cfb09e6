"""The observability plane: live insight into running simulations.

The paper's core claim is throughput, yet until this layer every
observation the reproduction made was post-hoc: ``MetricsRegistry``
snapshots, trace files, and sweep reports written after the run ended.
A long supervised sweep was a black box while it executed. This
package turns the existing telemetry and supervision seams into a live
serving-style plane (see DESIGN.md's "Observability plane"):

* :mod:`repro.observability.server` — a dependency-free stdlib HTTP
  server exposing ``GET /metrics`` (Prometheus text exposition),
  ``GET /healthz`` / ``GET /readyz``, ``GET /status`` (JSON snapshot),
  and ``GET /events`` (an SSE stream, schema ``repro-events/1``),
  plus the :class:`~repro.observability.server.EventBus` and
  :class:`~repro.observability.server.StatusBoard` the endpoints read;
* :mod:`repro.observability.log` — structured JSON logging (schema
  ``repro-log/1``) with run/job/attempt correlation IDs, threaded
  supervisor → worker over the existing pipe wire protocol so worker
  records aggregate into one ordered stream;
* :mod:`repro.observability.recorder` — the crash flight recorder: a
  bounded ring of recent events per worker, dumped into the
  ``AttemptReport`` on timeout/crash/numerics failure (schema
  ``repro-flight/1``);
* :mod:`repro.observability.hooks` — :class:`ServeHook`, the
  :class:`~repro.engine.hooks.PhaseHook` that feeds a live run's
  progress into the status board, the event bus, and the metrics
  registry without taxing the hot loop when idle;
* :mod:`repro.observability.top` — the ``repro top`` console view of
  the ``/status`` + ``/events`` feed (imported by the CLI, not
  re-exported here: it pulls in ``urllib``).

Exports resolve lazily (PEP 562, like :mod:`repro.supervision` and
:mod:`repro.reliability`): every ``repro run`` mints its run id from
:mod:`repro.observability.log`, and an eager init would make that one
import pay for ``http.server``, the hook stack and the flight recorder.
"""

import importlib

_EXPORTS = {
    "EVENTS_SCHEMA": "repro.observability.server",
    "EventBus": "repro.observability.server",
    "FLIGHT_SCHEMA": "repro.observability.recorder",
    "FlightRecorder": "repro.observability.recorder",
    "LOG_SCHEMA": "repro.observability.log",
    "ObservabilityServer": "repro.observability.server",
    "ServeHook": "repro.observability.hooks",
    "StatusBoard": "repro.observability.server",
    "StructuredLogger": "repro.observability.log",
    "log_stream_document": "repro.observability.log",
    "merge_records": "repro.observability.log",
    "new_run_id": "repro.observability.log",
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
