"""ServeHook: the bridge from the simulation loop to the HTTP plane.

A :class:`~repro.engine.hooks.PhaseHook` that feeds a live run's
progress into the :class:`~repro.observability.server.StatusBoard`
(``GET /status`` / ``repro top``), the
:class:`~repro.observability.server.EventBus` (``GET /events``), and —
optionally — gauge metrics (``GET /metrics``).

Hot-loop discipline: ``on_phase`` appends one float to a bounded deque
and reads the monotonic clock once; everything else (percentiles,
status snapshots, SSE publishing) happens at most once per
``publish_interval`` seconds, on the simulation thread. Kernel spans
cost the simulator extra clock reads, so they are opt-in
(``population_spans=True``). They arrive one per *block* — the
populations one ``advance`` call steps — so with them the view shows
block rows (``exc+inh``); without them it shows one row per population,
neuron counts scaled by the run's steps/sec, which is exact for the
fixed-work-per-step phases this simulator runs.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict

from repro.engine.hooks import PHASES, PhaseHook

__all__ = ["ServeHook"]

#: Per-phase rolling window of recent durations (events, not seconds).
DEFAULT_WINDOW = 240

#: Seconds between status/SSE publishes.
DEFAULT_PUBLISH_INTERVAL = 0.25


def _percentile_us(durations, q: float) -> float:
    """The q-quantile of a small duration window, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index] * 1e6


class ServeHook(PhaseHook):
    """Publishes live run progress to a status board and event bus."""

    def __init__(
        self,
        status,
        bus,
        metrics=None,
        publish_interval: float = DEFAULT_PUBLISH_INTERVAL,
        window: int = DEFAULT_WINDOW,
        population_spans: bool = False,
    ) -> None:
        self.status = status
        self.bus = bus
        self.metrics = metrics
        self.publish_interval = publish_interval
        #: Instance-level opt-in: the simulator only times per-population
        #: kernel spans when a hook overriding ``on_population`` also
        #: wants them (see ``Simulator._hook_dispatch``).
        self.wants_population_spans = population_spans
        self._window = window
        self._phase_durations: Dict[str, Deque[float]] = {
            phase: deque(maxlen=window) for phase in PHASES
        }
        self._population_sizes: Dict[str, int] = {}
        #: Kernel spans and update counts, keyed by block name.
        self._block_durations: Dict[str, Deque[float]] = {}
        self._block_sizes: Dict[str, int] = {}
        self._last_publish = 0.0
        self._window_anchor = 0.0
        self._window_steps = 0
        self._current_step = 0
        self._run_steps = 0
        self._steps_per_sec = 0.0

    # -- PhaseHook callbacks ----------------------------------------------

    def on_run_start(self, network, n_steps: int) -> None:
        now = time.monotonic()
        self._window_anchor = now
        self._last_publish = now
        self._window_steps = 0
        self._run_steps = 0
        self._population_sizes = {
            name: population.n
            for name, population in network.populations.items()
        }
        self._block_durations = {}
        self._block_sizes = {}
        self.status.update(
            state="running",
            network=network.name,
            n_steps_planned=n_steps,
            n_neurons=network.n_neurons,
            n_synapses=network.n_synapses,
            populations={
                name: {"neurons": n}
                for name, n in self._population_sizes.items()
            },
        )
        self.bus.publish(
            "run-start",
            {"network": network.name, "n_steps": n_steps},
        )

    def on_step_start(self, step: int) -> None:
        self._current_step = step

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        self._phase_durations[phase].append(seconds)
        if phase != PHASES[-1]:
            return
        # The synapse phase closes a step; throttle everything beyond
        # the deque append to the publish interval.
        self._window_steps += 1
        self._run_steps += 1
        now = time.monotonic()
        if now - self._last_publish < self.publish_interval:
            return
        self._publish(now, step)

    def on_population(
        self, population: str, step: int, seconds: float, operations: int
    ) -> None:
        durations = self._block_durations.get(population)
        if durations is None:
            durations = deque(maxlen=self._window)
            self._block_durations[population] = durations
            self._block_sizes[population] = operations
        durations.append(seconds)

    def on_run_end(self, result) -> None:
        self._publish(time.monotonic(), self._current_step)
        self.status.update(
            state="finished",
            total_spikes=result.total_spikes(),
            total_seconds=result.total_seconds,
        )
        self.bus.publish(
            "run-end",
            {
                "network": result.network_name,
                "steps": result.n_steps,
                "total_spikes": result.total_spikes(),
            },
        )

    # -- publishing (throttled) -------------------------------------------

    def _publish(self, now: float, step: int) -> None:
        elapsed = now - self._window_anchor
        if elapsed > 0 and self._window_steps > 0:
            self._steps_per_sec = self._window_steps / elapsed
        self._window_anchor = now
        self._window_steps = 0
        self._last_publish = now

        phases = {
            name: {
                "p50_us": _percentile_us(durations, 0.50),
                "p95_us": _percentile_us(durations, 0.95),
            }
            for name, durations in self._phase_durations.items()
        }
        populations: Dict[str, dict] = {}
        # Block rows once spans have named the blocks.
        for name, n in (self._block_sizes or self._population_sizes).items():
            entry: Dict[str, float] = {
                "neurons": n,
                # Fixed work per step: every neuron updates every step,
                # so ops/sec is exactly n x the run's step rate.
                "ops_per_sec": n * self._steps_per_sec,
            }
            spans = self._block_durations.get(name)
            if spans:
                entry["p50_us"] = _percentile_us(spans, 0.50)
                entry["p95_us"] = _percentile_us(spans, 0.95)
            populations[name] = entry

        self.status.update(
            current_step=step,
            steps_per_sec=self._steps_per_sec,
            phases=phases,
            populations=populations,
        )
        self.bus.publish(
            "progress",
            {
                "step": step,
                "steps_per_sec": round(self._steps_per_sec, 3),
            },
        )
        if self.metrics is not None:
            self.metrics.gauge(
                "run_current_step", "Latest simulated step index."
            ).set(step)
            self.metrics.gauge(
                "run_steps_per_sec",
                "Simulation throughput over the recent window.",
            ).set(self._steps_per_sec)

    # -- introspection (tests, repro top) ---------------------------------

    @property
    def steps_per_sec(self) -> float:
        return self._steps_per_sec
