"""ServeHook: the simulation loop feeding the live plane (real tiny runs)."""

from repro.assembly import DT
from repro.engine.hooks import PhaseHook
from repro.network.simulator import Simulator
from repro.observability import hooks
from repro.observability.hooks import ServeHook
from repro.observability.server import StatusBoard
from repro.telemetry.registry import MetricsRegistry
from repro.workloads import build_workload


def _simulator(scale=0.02, seed=7):
    network = build_workload("Brunel", scale=scale, seed=seed)
    return network, Simulator(network, dt=DT, seed=seed + 1)


def _serve_hook(metrics=None):
    status = StatusBoard(state="starting")
    return status, ServeHook(status, metrics=metrics)


class TestServeHookLiveRun:
    def test_status_board_tracks_a_run_end_to_end(self, monkeypatch):
        monkeypatch.setattr(hooks, "PUBLISH_INTERVAL", 0.0)
        network, simulator = _simulator()
        status, hook = _serve_hook()
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
        # One row per population, estimated from the step rate: the
        # hook takes no kernel spans, so the simulator times none.
        assert ServeHook.on_population is PhaseHook.on_population
        assert set(snapshot["populations"]) == set(network.populations)
        for name, population in network.populations.items():
            entry = snapshot["populations"][name]
            assert set(entry) == {"neurons", "ops_per_sec"}
            assert entry["neurons"] == population.n
            assert entry["ops_per_sec"] > 0

    def test_metrics_gauges_published(self):
        _, simulator = _simulator()
        metrics = MetricsRegistry()
        status, hook = _serve_hook(metrics=metrics)
        simulator.run(8, record_spikes=False, hooks=[hook])
        snapshot = metrics.snapshot()
        assert snapshot["run_current_step"]["values"][0]["value"] == 7
        assert snapshot["run_steps_per_sec"]["values"][0]["value"] > 0

    def test_throttled_hook_publishes_at_run_end_anyway(self, monkeypatch):
        monkeypatch.setattr(hooks, "PUBLISH_INTERVAL", 3600.0)
        _, simulator = _simulator()
        status, hook = _serve_hook()
        simulator.run(5, record_spikes=False, hooks=[hook])
        snapshot = status.snapshot()
        # No mid-run publish fired, but on_run_end forces a final one.
        assert snapshot["current_step"] == 4
        assert snapshot["state"] == "finished"

    def test_hook_is_reusable_across_runs(self):
        _, simulator = _simulator()
        status, hook = _serve_hook()
        simulator.run(5, record_spikes=False, hooks=[hook])
        simulator.run(7, record_spikes=False, hooks=[hook])
        snapshot = status.snapshot()
        assert snapshot["n_steps_planned"] == 7
        # Step indices continue across runs of one simulator (5 + 7).
        assert snapshot["current_step"] == 11
