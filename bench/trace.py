"""Outside-in tracer: spans around the simulator's public callables.

The traced repetition of a workload runs with every callable in
``TARGETS`` replaced, on its class, by a timing wrapper, and with a
:class:`StepHook` attached so each call knows which simulated step it
belongs to. Nothing under ``src/`` is edited: the simulator looks these
methods up on their classes at run time, so patching the class before
``Simulator.run`` starts is enough.

Every target is resolved by dotted name when the tracer is built. A
name that no longer resolves (a later change merged ``synapses_of``
into the router, say) is listed in ``Tracer.missing`` and its metrics
read ``None``; the benchmark loses one span, not the run.

Aggregates (busy seconds, calls, events) are kept per span name for
every step in lists allocated up front; full spans (name, start, end,
parent, step) only for ``WINDOW_STEPS`` steps after the warm-up. All of
it stays in memory until :meth:`Tracer.write_chrome_trace`.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.hooks import PHASES, PhaseHook

#: Steps after the warm-up whose individual spans are kept.
WINDOW_STEPS = 200


def _size(array) -> int:
    return int(array.size)


# Event counters receive the wrapped call's positional arguments
# (``self`` first) and its return value.
def _generate_events(args, out) -> int:
    return _size(out[0])


def _second_arg_events(args, out) -> int:
    return _size(args[1])


def _advance_events(args, out) -> int:
    return _size(out)


def _record_events(args, out) -> int:
    return _size(args[3])


#: (dotted target, span name, parent span, event counter). Several
#: targets may feed one span name (the concrete ``generate`` methods).
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.network.simulator.Simulator.__init__",
     "network.simulator.init", None, None),
    ("repro.network.stimulus.PoissonStimulus.generate",
     "network.stimulus.generate", "stimulus", _generate_events),
    ("repro.network.stimulus.PatternStimulus.generate",
     "network.stimulus.generate", "stimulus", _generate_events),
    ("repro.routing.ring.DelayRing.enqueue_now",
     "routing.ring.inject", "stimulus", _second_arg_events),
    ("repro.network.backends.RuntimeBackend.advance",
     "network.backends.advance", "neuron", _advance_events),
    ("repro.network.recorder.SpikeRecorder.record_indices",
     "network.recorder.record", "neuron", _record_events),
    ("repro.network.projection.Projection.synapses_of",
     "network.projection.gather", "synapse", _generate_events),
    ("repro.routing.ring.DelayRing.enqueue",
     "routing.ring.scatter", "synapse", _second_arg_events),
    ("repro.plasticity.stdp.PairSTDP.step",
     "plasticity.stdp.step", "synapse", None),
    ("repro.routing.router.SpikeRouter.rotate_all",
     "routing.router.rotate", "step", None),
    ("repro.network.recorder.SpikeRecorder.digest",
     "network.recorder.digest", None, None),
)

#: Spans called from inside ``Simulator.run``'s step loop: their busy
#: time is what ``loop_self_s`` subtracts from the run span.
LOOP_CHILDREN = tuple(
    dict.fromkeys(name for _, name, parent, _ in TARGETS if parent)
)


def resolve(dotted: str):
    """``(owner, attribute, value)`` for ``package.module.Class.attr``.

    Raises ``LookupError`` when any part of the name is gone.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            break
    raise LookupError(dotted)


class StepHook(PhaseHook):
    """Tells the tracer the current step and records the phase stream."""

    wants_population_spans = False

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def on_step_start(self, step: int) -> None:
        tracer = self._tracer
        if step < tracer.n_steps:
            tracer.row = step
            tracer.step_start[step] = time.perf_counter()

    def on_phase(self, phase, step, seconds, operations) -> None:
        tracer = self._tracer
        if step < tracer.n_steps:
            tracer.phase_seconds[phase][step] = seconds
            tracer.phase_end[phase][step] = time.perf_counter()

    def on_run_end(self, result) -> None:
        self._tracer.row = self._tracer.n_steps


class Tracer:
    """Span aggregates for one traced repetition of ``n_steps`` steps."""

    def __init__(self, n_steps: int, warmup_steps: int) -> None:
        self.n_steps = n_steps
        self.warmup_steps = warmup_steps
        #: Row a call is charged to: the current step, or the extra
        #: last row for calls made outside the step loop.
        self.row = n_steps
        self.names: List[str] = list(
            dict.fromkeys(name for _, name, _, _ in TARGETS)
        )
        self.parents: Dict[str, Optional[str]] = {
            name: parent for _, name, parent, _ in TARGETS
        }
        rows = n_steps + 1
        self.busy = {name: [0.0] * rows for name in self.names}
        self.calls = {name: [0] * rows for name in self.names}
        self.events = {name: [0] * rows for name in self.names}
        self.step_start = [0.0] * rows
        self.phase_seconds = {phase: [0.0] * rows for phase in PHASES}
        self.phase_end = {phase: [0.0] * rows for phase in PHASES}
        #: (name, start, end, step) for calls inside the span window.
        self.spans: List[Tuple[str, float, float, int]] = []
        self._window = range(
            warmup_steps, min(n_steps, warmup_steps + WINDOW_STEPS)
        )
        self.hook = StepHook(self)
        #: Dotted targets that no longer resolve.
        self.missing: List[str] = []
        self._patches = []
        for dotted, name, _, counter in TARGETS:
            try:
                owner, attribute, original = resolve(dotted)
            except LookupError:
                self.missing.append(dotted)
                continue
            self._patches.append(
                (owner, attribute, original,
                 self._wrap(original, name, counter))
            )
        resolved = {
            name for dotted, name, _, _ in TARGETS
            if dotted not in self.missing
        }
        #: Span names none of whose targets resolved.
        self.missing_names = [n for n in self.names if n not in resolved]

    def _wrap(self, original, name: str, counter):
        busy, calls, events = self.busy[name], self.calls[name], self.events[name]
        spans, window, clock = self.spans, self._window, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            out = original(*args, **kwargs)
            end = clock()
            row = self.row
            busy[row] += end - start
            calls[row] += 1
            if counter is not None:
                try:
                    events[row] += counter(args, out)
                except (AttributeError, IndexError, TypeError):
                    # The callable's signature moved; keep timing it.
                    pass
            if row in window:
                spans.append((name, start, end, row))
            return out

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install every wrapper; always put the originals back."""
        try:
            for owner, attribute, _, wrapper in self._patches:
                setattr(owner, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original, _ in self._patches:
                setattr(owner, attribute, original)

    # -- aggregates ---------------------------------------------------------

    def total(self, name: str, what: str = "busy", timed_only: bool = True):
        """Sum of one aggregate over the timed steps, or with
        ``timed_only=False`` over the warm-up too (None if missing)."""
        if name in self.missing_names:
            return None
        first = self.warmup_steps if timed_only else 0
        return sum(getattr(self, what)[name][first:self.n_steps])

    def outside(self, name: str, what: str = "busy"):
        """The aggregate charged outside the step loop (None if missing)."""
        if name in self.missing_names:
            return None
        return getattr(self, what)[name][self.n_steps]

    def phase_samples(self, phase: str) -> List[float]:
        """Per-step seconds of one phase over the timed steps."""
        return self.phase_seconds[phase][self.warmup_steps:self.n_steps]

    # -- export -------------------------------------------------------------

    def write_chrome_trace(self, path: str, workload: str) -> int:
        """Write the span window in Chrome/Perfetto Trace Event format.

        Rows (``tid``) are nesting depth: step, phase, layer call. Each
        event's ``args`` carry its step (the id spans of one step
        share) and its parent span. Returns the number of events.
        """
        if not self._window:
            origin = 0.0
        else:
            origin = self.step_start[self._window[0]]

        def event(name, start, end, depth, step, parent):
            return {
                "name": name, "ph": "X", "pid": 1, "tid": depth,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"step": step, "parent": parent},
            }

        # A step ends with its last recorded call (the ring rotation).
        last_end = {row: end for _, _, end, row in self.spans}
        events = []
        for step in self._window:
            start = self.step_start[step]
            step_end = max(
                [self.phase_end[phase][step] for phase in PHASES]
                + [last_end.get(step, 0.0)]
            )
            events.append(event("step", start, step_end, 0, step, None))
            for phase in PHASES:
                end = self.phase_end[phase][step]
                events.append(event(
                    phase, end - self.phase_seconds[phase][step], end,
                    1, step, "step",
                ))
        for name, start, end, step in self.spans:
            events.append(
                event(name, start, end, 2, step, self.parents[name])
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "window_steps": [self._window.start, self._window.stop]
                if self._window else [],
                "missing": self.missing,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(events)
