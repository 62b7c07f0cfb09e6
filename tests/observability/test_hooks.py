"""ServeHook: the simulation loop feeding the live plane (real tiny runs)."""

from repro.network.simulator import Simulator
from repro.observability.hooks import ServeHook
from repro.observability.server import EventBus, StatusBoard
from repro.telemetry.registry import MetricsRegistry
from repro.workloads import build_workload
from repro.workloads.builders import DT


def _simulator(scale=0.02, seed=7):
    network = build_workload("Brunel", scale=scale, seed=seed)
    return network, Simulator(network, dt=DT, seed=seed + 1)


def _serve_hook(**kwargs):
    status = StatusBoard(state="starting")
    bus = EventBus()
    hook = ServeHook(
        status, bus, publish_interval=kwargs.pop("publish_interval", 0.0),
        **kwargs,
    )
    return status, bus, hook


class TestServeHookLiveRun:
    def test_status_board_tracks_a_run_end_to_end(self):
        network, simulator = _simulator()
        status, bus, hook = _serve_hook()
        simulator.run(10, record_spikes=False, hooks=[hook])
        snapshot = status.snapshot()
        assert snapshot["state"] == "finished"
        assert snapshot["network"] == "Brunel"
        assert snapshot["n_steps_planned"] == 10
        assert snapshot["n_neurons"] == network.n_neurons
        assert snapshot["current_step"] == 9
        assert snapshot["steps_per_sec"] > 0
        assert set(snapshot["phases"]) == {"stimulus", "neuron", "synapse"}
        assert snapshot["phases"]["neuron"]["p95_us"] >= (
            snapshot["phases"]["neuron"]["p50_us"]
        )
        assert "total_spikes" in snapshot
        for name, population in network.populations.items():
            entry = snapshot["populations"][name]
            assert entry["neurons"] == population.n
            assert entry["ops_per_sec"] > 0

    def test_events_bracket_the_run(self):
        _, simulator = _simulator()
        status, bus, hook = _serve_hook()
        with bus.subscribe() as subscription:
            simulator.run(5, record_spikes=False, hooks=[hook])
            events = []
            while True:
                event = subscription.get(timeout=0.1)
                if event is None:
                    break
                events.append(event)
        types = [event["type"] for event in events]
        assert types[0] == "run-start"
        assert types[-1] == "run-end"
        assert "progress" in types
        run_end = events[-1]
        assert run_end["steps"] == 5
        assert "total_spikes" in run_end

    def test_metrics_gauges_published(self):
        _, simulator = _simulator()
        metrics = MetricsRegistry()
        status, bus, hook = _serve_hook(metrics=metrics)
        simulator.run(8, record_spikes=False, hooks=[hook])
        snapshot = metrics.snapshot()
        assert snapshot["run_current_step"]["values"][0]["value"] == 7
        assert snapshot["run_steps_per_sec"]["values"][0]["value"] > 0

    def test_population_spans_are_opt_in(self):
        _, simulator = _simulator()
        status, bus, hook = _serve_hook(population_spans=False)
        assert hook.wants_population_spans is False
        simulator.run(5, record_spikes=False, hooks=[hook])
        for entry in status.snapshot()["populations"].values():
            # Without spans the view estimates ops/sec but has no
            # per-population percentiles.
            assert "p50_us" not in entry

    def test_population_spans_when_requested(self):
        network, simulator = _simulator()
        status, bus, hook = _serve_hook(population_spans=True)
        assert hook.wants_population_spans is True
        simulator.run(5, record_spikes=False, hooks=[hook])
        # Spans are per block, so the rows are: Brunel's exc and inh
        # share a model and are stepped by one call.
        rows = status.snapshot()["populations"]
        assert set(rows) == {"exc+inh"}
        assert rows["exc+inh"]["neurons"] == network.n_neurons
        for entry in rows.values():
            assert entry["p50_us"] >= 0.0
            assert entry["p95_us"] >= entry["p50_us"]

    def test_throttled_hook_publishes_at_run_end_anyway(self):
        _, simulator = _simulator()
        status, bus, hook = _serve_hook(publish_interval=3600.0)
        simulator.run(5, record_spikes=False, hooks=[hook])
        snapshot = status.snapshot()
        # No mid-run publish fired, but on_run_end forces a final one.
        assert snapshot["current_step"] == 4
        assert snapshot["state"] == "finished"

    def test_hook_is_reusable_across_runs(self):
        _, simulator = _simulator()
        status, bus, hook = _serve_hook()
        simulator.run(5, record_spikes=False, hooks=[hook])
        simulator.run(7, record_spikes=False, hooks=[hook])
        snapshot = status.snapshot()
        assert snapshot["n_steps_planned"] == 7
        # Step indices continue across runs of one simulator (5 + 7).
        assert snapshot["current_step"] == 11
