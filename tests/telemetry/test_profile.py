"""The telemetry budget: full telemetry costs < 5 % steps/sec."""

import gc
import time

from repro.frontend import build_backend, build_network
from repro.network.simulator import Simulator
from repro.telemetry import MetricsRegistry, TraceHook
from repro.workloads import spec_for

STEPS = 240
REPS = 16
ATTEMPTS = 6
BUDGET = 0.05


def _steps_per_second(simulator, telemetry):
    start = time.perf_counter()
    simulator.run(STEPS, record_spikes=False, **telemetry)
    return STEPS / (time.perf_counter() - start)


def _attempt(simulator, bare_samples, instrumented_samples):
    """One attempt: two fresh simulators from ``simulator()``, warmed
    up, then ``REPS`` ABBA-ordered reps of each (GC paused, as
    ``timeit`` does)."""
    bare, instrumented = simulator(), simulator()
    # The trace ring holds one rep (three phases and one span per block
    # per step), and the warm-up fills it: timed reps pay the
    # steady-state append a long traced run pays, not heap growth.
    events_per_step = 3 + len(instrumented.backend.blocks)
    telemetry = {
        "hooks": [TraceHook(max_events=STEPS * events_per_step)],
        "metrics": MetricsRegistry(),
    }
    series = [
        (bare, {}, bare_samples),
        (instrumented, telemetry, instrumented_samples),
    ]
    # Warm-up: lazy plan binding, allocator, caches.
    for simulator, kwargs, _ in series:
        _steps_per_second(simulator, kwargs)
    gc.disable()
    try:
        for rep in range(REPS):
            for simulator, kwargs, samples in (
                series if rep % 2 == 0 else series[::-1]
            ):
                samples.append(_steps_per_second(simulator, kwargs))
    finally:
        gc.enable()


class TestOverheadBudget:
    def test_izhikevich_overhead_below_five_percent(self):
        """Acceptance: a ``TraceHook`` plus a ``MetricsRegistry`` cost
        < 5 % steps/sec on Izhikevich.

        Telemetry costs a fixed ~4 events/step, so the budget is held at
        a scale where a step does substantial integration work (scale
        0.3, 3000 neurons); at toy scales the same fixed cost is
        measured against a nearly empty step.

        Both simulators of an attempt run over one network built from
        the workload's spec and step through identical spike dynamics,
        and ABBA order makes host drift and position-in-pair bias hit
        both series alike. The
        estimator is fastest bare vs fastest instrumented, which only
        sharpens with samples, so attempts pool their reps instead of
        starting over: on a contended host a single best-of-16 estimate
        of a ~0.04 delta crossed 0.05 on half the attempts. Each attempt
        restarts both simulators at step 0, so every attempt replays the
        same stretch of dynamics; six pooled attempts are allowed.
        """
        spec = spec_for("Izhikevich", scale=0.3, seed=7)
        network = build_network(spec)

        def simulator():
            return Simulator(
                network, build_backend(spec), dt=spec["dt"],
                seed=spec["stimulus_seed"],
            )

        bare, instrumented = [], []
        for attempt in range(ATTEMPTS):
            _attempt(simulator, bare, instrumented)
            delta = 1.0 - max(instrumented) / max(bare)
            if delta < BUDGET:
                break
            time.sleep(2.0)
        assert delta < BUDGET, (max(bare), max(instrumented), attempt + 1)
