"""Per-process span rings and their dual-exit-path shipping.

A :class:`SpanRecorder` is the provenance sibling of the telemetry
layer's :class:`~repro.telemetry.trace.TraceHook`: a bounded ring of
completed spans, but stamped with *wall-clock* start times so rings from
different processes can be merged after clock-offset correction
(monotonic clocks do not compare across processes). Each span is a
compact dict::

    {"name": ..., "cat": ..., "ts": <time.time() at start>,
     "dur": <seconds>, "args": {...}}   # ``args`` optional

Shipping follows the flight recorder's dual exit paths exactly:

* the ring rides the worker's ``done``/``failed`` pipe message when
  the process gets to say goodbye, and
* :meth:`SpanRecorder.sync` keeps an atomic sidecar file fresh on the
  heartbeat cadence, so a SIGKILL'd worker still leaves its most
  recent spans behind for the parent to collect.

:class:`PhaseSpanHook` adapts the engine's phase event stream into a
recorder, giving supervised job workers per-phase spans for free.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Optional

from repro.engine.hooks import PhaseHook
from repro.io import atomic_write_json
from repro.provenance.context import TraceContext

__all__ = ["SPANS_SCHEMA", "PhaseSpanHook", "SpanRecorder"]

#: Schema tag of a span-ring dump (pipe payload and sidecar alike).
SPANS_SCHEMA = "repro-spans/1"

#: Default ring capacity. Spans are a provenance breadcrumb, not a
#: full profile (that is TraceHook's job): keep the recent window
#: small enough that rings ride pipe messages without bloat.
DEFAULT_MAX_SPANS = 512

#: Minimum seconds between sidecar rewrites (heartbeat cadence).
SYNC_INTERVAL = 1.0


class SpanRecorder:
    """Bounded ring of completed wall-clock spans for one process."""

    def __init__(
        self,
        context: Optional[TraceContext] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        sidecar_path: Optional[str] = None,
        sync_interval: float = SYNC_INTERVAL,
    ) -> None:
        self.context = context or TraceContext(run_id="")
        self.spans: "deque[dict]" = deque(maxlen=max_spans)
        self.max_spans = max_spans
        self.sidecar_path = sidecar_path
        self.sync_interval = sync_interval
        self.total_spans = 0
        self._last_sync = 0.0

    @property
    def dropped_spans(self) -> int:
        """Spans evicted by the ring (0 while within capacity)."""
        return self.total_spans - len(self.spans)

    def record(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> dict:
        """Append one completed span (``ts`` = wall-clock start)."""
        span = {"name": name, "cat": cat, "ts": ts, "dur": dur}
        if args:
            span["args"] = args
        self.total_spans += 1
        self.spans.append(span)
        return span

    def dump(self) -> dict:
        """Pipe/JSON-safe snapshot of the ring (most recent window)."""
        return {
            "schema": SPANS_SCHEMA,
            "pid": os.getpid(),
            "context": self.context.to_payload(),
            "total_spans": self.total_spans,
            "dropped_spans": self.dropped_spans,
            "spans": list(self.spans),
        }

    def sync(self, force: bool = False) -> None:
        """Refresh the sidecar file, throttled to the sync interval.

        Same contract as ``FlightRecorder.sync``: cheap enough to call
        on every heartbeat, atomic so a kill mid-write leaves the
        previous good dump. No-op without a sidecar path.
        """
        if not self.sidecar_path:
            return
        now = time.monotonic()
        if not force and now - self._last_sync < self.sync_interval:
            return
        self._last_sync = now
        try:
            atomic_write_json(self.sidecar_path, self.dump(), indent=None)
        except OSError:  # pragma: no cover - disk full / dir gone
            pass

    @staticmethod
    def load_dump(path: str) -> Optional[dict]:
        """Read a sidecar dump; ``None`` if absent or unusable."""
        import json

        try:
            with open(path, "r", encoding="utf-8") as handle:
                dump = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(dump, dict)
            or dump.get("schema") != SPANS_SCHEMA
        ):
            return None
        return dump


class PhaseSpanHook(PhaseHook):
    """Adapt the simulator's phase stream into a span ring.

    ``on_phase`` receives the phase duration *after* the phase ran, so
    the span start is reconstructed as ``time.time() - seconds`` — one
    extra clock read per phase, the same budget class as the heartbeat
    hook. Deliberately does not override ``on_population``: kernel
    spans stay opt-in via the telemetry TraceHook.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        self.recorder.record(
            phase,
            "phase",
            time.time() - seconds,
            seconds,
            args={"step": step},
        )
