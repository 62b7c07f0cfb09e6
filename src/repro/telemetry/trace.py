"""TraceHook: the simulator's event stream as a Chrome/Perfetto trace.

The :class:`~repro.engine.hooks.PhaseHook` stream already carries every
per-phase duration; this hook turns it — plus the kernel spans the
simulator emits, one per block per step, to hooks that override
``on_population`` — into Trace Event Format JSON that loads directly
in ``chrome://tracing`` or Perfetto (https://ui.perfetto.dev). One run
becomes a timeline: the three phases on the "simulator" track, each
block's neuron-kernel spans (``exc+inh`` for populations stepped as
one, a lone population under its own name) on its own named track
underneath.

The hot path stores only what the event stream hands it — a compact
``(kind, name, seconds, step, operations)`` tuple per span, no clock
reads of its own. Timestamps are *reconstructed at export time* by
laying the measured durations end to end (kernel spans inside their
step's neuron phase), so the timeline shows pure simulation compute;
bookkeeping gaps between phases (hook dispatch, recorder sampling,
queue rotation) are excluded by construction. Span durations are the
simulator's real wall-clock measurements.

Memory is bounded: events land in a ring buffer (default
:data:`DEFAULT_MAX_EVENTS`), so an arbitrarily long run keeps the most
recent window instead of growing without limit; ``dropped_events``
reports how much of the head was discarded.

Usage::

    trace = TraceHook()
    simulator.run(n_steps, hooks=[trace])
    document = trace.trace_json()   # write it out; load it in Perfetto

or from the CLI: ``python -m repro run Brunel --trace out.json``, which
writes the document atomically.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.hooks import PhaseHook

__all__ = ["DEFAULT_MAX_EVENTS", "TraceHook"]

#: Default ring-buffer capacity. Three phase events per step plus one
#: span per block per step; at ~5 events/step this keeps the last
#: ~40k steps of a run in roughly 20 MB of tuples.
DEFAULT_MAX_EVENTS = 200_000

#: The single trace "process" every track lives under.
_PID = 1
#: Track id of the three-phase simulator timeline.
_SIMULATOR_TID = 0

_PHASE = 0
_KERNEL = 1


class TraceHook(PhaseHook):
    """Records phase and per-block kernel spans as Trace Event JSON.

    ``max_events`` bounds the ring buffer (``None`` = unbounded).
    """

    def __init__(
        self, max_events: Optional[int] = DEFAULT_MAX_EVENTS, run_id: str = ""
    ) -> None:
        #: (kind, name, seconds, step, operations) compact records.
        self._events: Deque[Tuple[int, str, float, int, int]] = deque(
            maxlen=max_events
        )
        self._append = self._events.append
        self.max_events = max_events
        #: Total events offered, including ones the ring evicted.
        self.total_events = 0
        self._network_name = ""
        #: Provenance correlation id stamped into ``otherData`` (ties
        #: the trace artifact to its ledger entry; "" when untracked).
        self.run_id = run_id

    # -- PhaseHook interface ----------------------------------------------

    def on_run_start(self, network, n_steps: int) -> None:
        self._network_name = getattr(network, "name", "")

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        self._append((_PHASE, phase, seconds, step, operations))

    def on_population(
        self, population: str, step: int, seconds: float, operations: int
    ) -> None:
        self._append((_KERNEL, population, seconds, step, operations))

    def on_run_end(self, result) -> None:
        # Lifetime accounting happens here, once per run, so the
        # per-event callbacks stay a single bounded append.
        self.total_events += result.n_steps * (3 + len(result.blocks))

    # -- export ------------------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Events the ring buffer evicted (0 while within capacity).

        ``total_events`` is settled at run end, so mid-run (or after an
        aborted run) this can momentarily undercount; it is exact for
        completed runs.
        """
        return max(0, self.total_events - len(self._events))

    def to_trace_events(self) -> List[dict]:
        """The buffered spans as Trace Event Format dicts.

        Metadata (``ph: "M"``) events name the process and per-track
        threads so Perfetto renders labeled rows; every span is a
        complete (``ph: "X"``) event with microsecond timestamps laid
        out cumulatively (see module docstring).
        """
        spans: List[dict] = []
        tids: Dict[str, int] = {}
        now_us = 0.0
        #: Kernel events arrive before their step's neuron phase event;
        #: they are held here and placed once that phase anchors them.
        pending: List[Tuple[str, float, int, int]] = []

        def emit(name: str, tid: int, ts: float, dur: float, step: int,
                 operations: int, cat: str) -> None:
            spans.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "pid": _PID,
                    "tid": tid,
                    "ts": round(ts, 3),
                    "dur": round(dur, 3),
                    "args": {"step": step, "operations": operations},
                }
            )

        def flush_pending(start_us: float) -> None:
            cursor = start_us
            for population, seconds, step, operations in pending:
                tid = tids.get(population)
                if tid is None:
                    tid = len(tids) + 1
                    tids[population] = tid
                dur_us = seconds * 1e6
                emit(population, tid, cursor, dur_us, step, operations,
                     "kernel")
                cursor += dur_us
            pending.clear()

        for kind, name, seconds, step, operations in self._events:
            if kind == _KERNEL:
                pending.append((name, seconds, step, operations))
                continue
            if pending:
                # Kernel spans nest from the start of the phase that
                # contains them (always the neuron phase).
                flush_pending(now_us)
            dur_us = seconds * 1e6
            emit(name, _SIMULATOR_TID, now_us, dur_us, step, operations,
                 "phase")
            now_us += dur_us
        if pending:  # ring dropped the anchoring phase event
            flush_pending(now_us)

        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": _PID,
                "tid": _SIMULATOR_TID,
                "args": {"name": f"repro:{self._network_name or 'run'}"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _SIMULATOR_TID,
                "args": {"name": "phases"},
            },
        ]
        for population, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": f"pop:{population}"},
                }
            )
        events.extend(spans)
        return events

    def trace_json(self) -> dict:
        """The full Trace Event JSON document (Perfetto-loadable)."""
        return {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "network": self._network_name,
                "run_id": self.run_id,
                "dropped_events": self.dropped_events,
            },
        }
