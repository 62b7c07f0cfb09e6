"""ServeHook: the bridge from the simulation loop to the HTTP plane.

A :class:`~repro.engine.hooks.PhaseHook` that feeds a live run's
progress into the :class:`~repro.observability.server.StatusBoard`
(``GET /status``) and — optionally — the ``run_*`` gauges
(``GET /metrics``).

Hot-loop discipline: ``on_phase`` appends one float to a bounded deque
and reads the monotonic clock once; everything else (percentiles,
status snapshots, gauges) happens at most once per
:data:`PUBLISH_INTERVAL` seconds, on the simulation thread. The hook
takes no kernel spans: it shows one row per population, neuron counts
scaled by the run's steps/sec, which is exact for the
fixed-work-per-step phases this simulator runs.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict

from repro.engine.hooks import PHASES, PhaseHook

__all__ = ["ServeHook"]

#: Per-phase rolling window of recent durations (events, not seconds).
WINDOW = 240

#: Seconds between status publishes.
PUBLISH_INTERVAL = 0.25


def _percentile_us(durations, q: float) -> float:
    """The q-quantile of a small duration window, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index] * 1e6


class ServeHook(PhaseHook):
    """Publishes live run progress to a status board and gauges."""

    def __init__(self, status, metrics=None) -> None:
        self.status = status
        self.metrics = metrics
        self._phase_durations: Dict[str, Deque[float]] = {
            phase: deque(maxlen=WINDOW) for phase in PHASES
        }
        self._population_sizes: Dict[str, int] = {}
        self._last_publish = 0.0
        self._window_anchor = 0.0
        self._window_steps = 0
        self._current_step = 0
        self._steps_per_sec = 0.0

    # -- PhaseHook callbacks ----------------------------------------------

    def on_run_start(self, network, n_steps: int) -> None:
        now = time.monotonic()
        self._window_anchor = now
        self._last_publish = now
        self._window_steps = 0
        self._population_sizes = {
            name: population.n
            for name, population in network.populations.items()
        }
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
        now = time.monotonic()
        if now - self._last_publish < PUBLISH_INTERVAL:
            return
        self._publish(now, step)

    def on_run_end(self, result) -> None:
        self._publish(time.monotonic(), self._current_step)
        self.status.update(
            state="finished",
            total_spikes=result.total_spikes(),
            total_seconds=result.total_seconds,
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
        populations = {
            name: {
                "neurons": n,
                # Fixed work per step: every neuron updates every step,
                # so ops/sec is exactly n x the run's step rate.
                "ops_per_sec": n * self._steps_per_sec,
            }
            for name, n in self._population_sizes.items()
        }
        self.status.update(
            current_step=step,
            steps_per_sec=self._steps_per_sec,
            phases=phases,
            populations=populations,
        )
        if self.metrics is not None:
            self.metrics.gauge(
                "run_current_step", "Latest simulated step index."
            ).set(step)
            self.metrics.gauge(
                "run_steps_per_sec",
                "Simulation throughput over the recent window.",
            ).set(self._steps_per_sec)
