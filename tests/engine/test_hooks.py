"""PhaseHook API and the unified phase-accounting regression tests."""

import pytest

from repro.engine import PHASES, PhaseHook, PhaseTimer
from repro.network import ReferenceBackend, Simulator, StateRecorder
from repro.telemetry import TraceHook

DT = 1e-4

#: Events a TraceHook records per step of ``small_network``: three
#: phases and one kernel span (exc and inh share a block).
EVENTS_PER_STEP = len(PHASES) + 1


def _steps(trace):
    """Step index of every buffered span, oldest first."""
    return [
        event["args"]["step"]
        for event in trace.to_trace_events()
        if event["ph"] == "X"
    ]


class _RecordingHook(PhaseHook):
    def __init__(self):
        self.run_starts = []
        self.steps = []
        self.phases = []
        self.results = []

    def on_run_start(self, network, n_steps):
        self.run_starts.append((network.name, n_steps))

    def on_step_start(self, step):
        self.steps.append(step)

    def on_phase(self, phase, step, seconds, operations):
        self.phases.append((phase, step, operations))

    def on_run_end(self, result):
        self.results.append(result)


class TestPhaseHookStream:
    def test_hook_sees_every_phase_of_every_step(self, small_network):
        hook = _RecordingHook()
        sim = Simulator(small_network, dt=DT, seed=3)
        result = sim.run(25, hooks=[hook])
        assert hook.run_starts == [(small_network.name, 25)]
        assert hook.steps == list(range(25))
        assert len(hook.phases) == 25 * len(PHASES)
        # Per step, the three phases fire in canonical order.
        assert [p for p, _, _ in hook.phases[:3]] == list(PHASES)
        assert hook.results == [result]

    def test_hook_step_numbers_continue_across_runs(self, small_network):
        hook = _RecordingHook()
        sim = Simulator(small_network, dt=DT, seed=3)
        sim.run(10, hooks=[hook])
        sim.run(5, hooks=[hook])
        assert hook.steps == list(range(15))

    def test_phase_trace_counts_steps(self, small_network):
        trace = TraceHook(max_events=None)
        Simulator(small_network, dt=DT, seed=3).run(12, hooks=[trace])
        steps = _steps(trace)
        assert len(set(steps)) == 12
        assert len(steps) == 12 * EVENTS_PER_STEP

    def test_phase_timer_standalone_accumulates(self):
        timer = PhaseTimer()
        timer.on_phase("neuron", 0, 0.5, 10)
        timer.on_phase("neuron", 1, 0.25, 10)
        assert timer.phases["neuron"].seconds == 0.75
        assert timer.phases["neuron"].operations == 20

    def test_base_hook_methods_are_no_ops(self, small_network):
        # A bare PhaseHook must be attachable without overriding anything.
        Simulator(small_network, dt=DT, seed=3).run(5, hooks=[PhaseHook()])


class TestPhaseAccounting:
    """Regressions for the seed's two phase-accounting bugs: recorder
    sampling silently charged to the neuron phase, and neuron updates
    counted on a second independent path.
    """

    def test_counters_come_from_phase_stats(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(50)
        assert result.neuron_updates == result.phases["neuron"].operations
        assert result.synaptic_events == result.phases["synapse"].operations
        assert result.stimulus_events == result.phases["stimulus"].operations

    def test_neuron_updates_exactly_steps_times_neurons(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(50)
        assert result.neuron_updates == 50 * small_network.n_neurons

    def test_fractions_sum_to_one_with_recorders(self, small_network):
        recorder = StateRecorder("exc", variables=("v",), neurons=[0])
        result = Simulator(small_network, dt=DT, seed=3).run(
            50, state_recorders=[recorder]
        )
        assert sum(result.phase_fractions().values()) == pytest.approx(1.0)
        assert set(result.phases) == set(PHASES)

    def test_recorder_time_not_charged_to_any_phase(self, small_network):
        recorder = StateRecorder("exc", variables=("v",), neurons=[0])
        result = Simulator(small_network, dt=DT, seed=3).run(
            50, state_recorders=[recorder]
        )
        assert result.recording_seconds > 0.0
        assert result.recording_seconds not in [
            stats.seconds for stats in result.phases.values()
        ]

    def test_no_recorders_means_no_recording_time(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(20)
        assert result.recording_seconds == 0.0

    def test_identical_counts_on_engine_and_solver_paths(self, small_network):
        fast = Simulator(
            small_network, ReferenceBackend("Euler"), dt=DT, seed=3
        ).run(50)
        assert (
            fast.neuron_updates == 50 * small_network.n_neurons
        )


class TestPhaseTraceRingBuffer:
    def test_unbounded_by_default(self, small_network):
        trace = TraceHook(max_events=None)
        Simulator(small_network, dt=DT, seed=3).run(40, hooks=[trace])
        assert len(_steps(trace)) == 40 * EVENTS_PER_STEP
        assert trace.total_events == 40 * EVENTS_PER_STEP
        assert trace.dropped_events == 0

    def test_ring_keeps_most_recent_events(self, small_network):
        trace = TraceHook(max_events=12)
        Simulator(small_network, dt=DT, seed=3).run(40, hooks=[trace])
        assert trace.total_events == 160
        assert trace.dropped_events == 148
        # The survivors are the last three steps' events.
        assert _steps(trace) == [37] * 4 + [38] * 4 + [39] * 4

    def test_durations_of_reads_only_the_buffer(self, small_network):
        trace = TraceHook(max_events=8)
        result = Simulator(small_network, dt=DT, seed=3).run(10, hooks=[trace])
        durations = {}
        for event in trace.trace_json()["traceEvents"]:
            if event["ph"] == "X":
                durations.setdefault(event["name"], []).append(event["dur"])
        assert set(durations) == set(PHASES) | set(result.blocks)
        assert len(durations["neuron"]) == 2
        assert all(value >= 0.0 for value in durations["neuron"])


class _FailingHook(PhaseHook):
    """Raises from one chosen callback at one chosen step."""

    def __init__(self, callback, fail_step=0, error=ValueError("boom")):
        self.callback = callback
        self.fail_step = fail_step
        self.error = error
        self.calls = []

    def _maybe_fail(self, name, step):
        self.calls.append((name, step))
        if name == self.callback and step >= self.fail_step:
            raise self.error

    def on_run_start(self, network, n_steps):
        self._maybe_fail("on_run_start", 0)

    def on_step_start(self, step):
        self._maybe_fail("on_step_start", step)

    def on_phase(self, phase, step, seconds, operations):
        self._maybe_fail("on_phase", step)

    def on_population(self, population, step, seconds, operations):
        self._maybe_fail("on_population", step)

    def on_run_end(self, result):
        self._maybe_fail("on_run_end", result.n_steps)


class TestHookFailureSemantics:
    """Pins the contract in the hooks module docstring: plain exceptions
    are isolated (hook detached, HookError recorded, warning emitted);
    ReproError subclasses propagate after the phase closed.
    """

    def test_failing_hook_is_isolated_and_recorded(self, small_network):
        hook = _FailingHook("on_phase", fail_step=5)
        with pytest.warns(RuntimeWarning, match="on_phase"):
            result = Simulator(small_network, dt=DT, seed=3).run(20, hooks=[hook])
        assert len(result.hook_errors) == 1
        error = result.hook_errors[0]
        assert error.hook == "_FailingHook"
        assert error.callback == "on_phase"
        assert error.step == 5
        assert "boom" in error.error
        assert "detached" in error.describe()

    def test_failed_hook_detached_for_rest_of_run(self, small_network):
        hook = _FailingHook("on_phase", fail_step=5)
        with pytest.warns(RuntimeWarning):
            Simulator(small_network, dt=DT, seed=3).run(20, hooks=[hook])
        # The hook saw nothing after the step where it raised.
        assert max(step for _, step in hook.calls) == 5

    def test_phase_accounting_survives_hook_failure(self, small_network):
        hook = _FailingHook("on_phase", fail_step=0)
        with pytest.warns(RuntimeWarning):
            result = Simulator(small_network, dt=DT, seed=3).run(20, hooks=[hook])
        assert set(result.phases) == set(PHASES)
        assert result.neuron_updates == 20 * small_network.n_neurons
        assert sum(result.phase_fractions().values()) == pytest.approx(1.0)

    def test_other_hooks_keep_running(self, small_network):
        failing = _FailingHook("on_phase", fail_step=0)
        healthy = _RecordingHook()
        with pytest.warns(RuntimeWarning):
            Simulator(small_network, dt=DT, seed=3).run(
                20, hooks=[failing, healthy]
            )
        assert len(healthy.phases) == 20 * len(PHASES)

    def test_step_start_failure_isolated_too(self, small_network):
        hook = _FailingHook("on_step_start", fail_step=3)
        with pytest.warns(RuntimeWarning):
            result = Simulator(small_network, dt=DT, seed=3).run(10, hooks=[hook])
        assert result.hook_errors[0].callback == "on_step_start"
        assert result.n_steps == 10

    def test_run_end_failure_recorded(self, small_network):
        hook = _FailingHook("on_run_end")
        with pytest.warns(RuntimeWarning):
            result = Simulator(small_network, dt=DT, seed=3).run(5, hooks=[hook])
        assert result.hook_errors[0].callback == "on_run_end"

    @pytest.mark.parametrize(
        "callback",
        ["on_run_start", "on_step_start", "on_phase", "on_population",
         "on_run_end"],
    )
    def test_every_callback_is_isolated_once(self, small_network, callback):
        failing = _FailingHook(callback, fail_step=0)
        healthy = _RecordingHook()
        with pytest.warns(RuntimeWarning, match=callback) as caught:
            result = Simulator(small_network, dt=DT, seed=3).run(
                10, hooks=[failing, healthy]
            )
        assert len(caught) == 1
        assert [(e.hook, e.callback) for e in result.hook_errors] == [
            ("_FailingHook", callback)
        ]
        # Detached at the end of the step it failed in: no later events.
        failed_at = result.hook_errors[0].step
        assert all(step <= failed_at for _, step in failing.calls)
        assert healthy.steps == list(range(10))
        assert len(healthy.phases) == 10 * len(PHASES)
        assert healthy.results == [result]
        bare = Simulator(small_network, dt=DT, seed=3).run(10)
        assert result.spikes.digest() == bare.spikes.digest()

    def test_repro_error_propagates(self, small_network):
        from repro.errors import NumericsError

        hook = _FailingHook("on_phase", fail_step=5, error=NumericsError("nan"))
        with pytest.raises(NumericsError):
            Simulator(small_network, dt=DT, seed=3).run(20, hooks=[hook])

    def test_hook_errors_reach_metrics_registry(self, small_network):
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
        hook = _FailingHook("on_phase", fail_step=0)
        with pytest.warns(RuntimeWarning):
            result = Simulator(small_network, dt=DT, seed=3).run(
                10, hooks=[hook], metrics=metrics
            )
        entry = [
            e
            for e in result.metrics["sim_hook_errors_total"]["values"]
        ]
        assert entry[0]["value"] == 1


class _SpanHook(PhaseHook):
    def __init__(self):
        self.spans = []

    def on_population(self, population, step, seconds, operations):
        self.spans.append((population, step, seconds, operations))


class TestPopulationSpans:
    def test_span_hook_sees_every_population_every_step(self, small_network):
        hook = _SpanHook()
        result = Simulator(small_network, dt=DT, seed=3).run(10, hooks=[hook])
        # One span per block per step, and the blocks hold every
        # population once: here exc and inh share a model and a block.
        populations = small_network.populations
        assert result.blocks == {"exc+inh": ("exc", "inh")}
        assert len(hook.spans) == 10 * len(result.blocks)
        assert {name for name, *_ in hook.spans} == set(result.blocks)
        assert all(seconds >= 0.0 for _, _, seconds, _ in hook.spans)
        assert all(
            operations == sum(populations[m].n for m in result.blocks[name])
            for name, _, _, operations in hook.spans
        )

    def test_span_seconds_fit_inside_neuron_phase(self, small_network):
        hook = _SpanHook()
        result = Simulator(small_network, dt=DT, seed=3).run(10, hooks=[hook])
        assert sum(s for _, _, s, _ in hook.spans) <= result.phases["neuron"].seconds
