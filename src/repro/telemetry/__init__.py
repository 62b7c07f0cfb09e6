"""The telemetry layer: one sink for everything the simulator observes.

Two pieces (see DESIGN.md's "Telemetry layer"):

* :mod:`repro.telemetry.registry` — ``MetricsRegistry``: named
  counter/gauge/histogram families every layer publishes into,
  exported as a JSON snapshot (``SimulationResult.metrics``, the
  ``metrics`` block of ``repro run --stats-json``);
* :mod:`repro.telemetry.trace` — ``TraceHook``: the per-phase event
  stream plus per-population kernel spans as Chrome
  ``chrome://tracing`` / Perfetto Trace Event JSON, ring-buffered so
  long runs stay memory-bounded.

Per-phase latency, op rates and the instruments' own overhead are
measured by ``python3 bench/run.py --trace 1``.
"""

from repro.telemetry.registry import (
    Counter,
    DEFAULT_SECONDS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import DEFAULT_MAX_EVENTS, TraceHook

__all__ = [
    "Counter",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceHook",
]
