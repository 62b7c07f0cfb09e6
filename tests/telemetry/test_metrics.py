"""End-to-end metrics publication: simulator, backends, reliability."""

import json

import pytest

from repro.hardware.backend import FoldedFlexonBackend, HybridBackend
from repro.network import ReferenceBackend, Simulator
from repro.telemetry import MetricsRegistry
from repro.workloads import build_workload

DT = 1e-4


def value_of(snapshot, name, **labels):
    """The value of one metric child in a registry snapshot."""
    for entry in snapshot[name]["values"]:
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            return entry["value"]
    raise AssertionError(f"no {name} child with labels {labels}")


class TestSimulatorMetrics:
    def test_phase_counters_match_result_phases(self, small_network):
        metrics = MetricsRegistry()
        result = Simulator(small_network, dt=DT, seed=3).run(30, metrics=metrics)
        snapshot = result.metrics
        for phase, stats in result.phases.items():
            assert value_of(
                snapshot, "sim_phase_seconds_total", phase=phase
            ) == pytest.approx(stats.seconds)
            assert (
                value_of(snapshot, "sim_phase_operations_total", phase=phase)
                == stats.operations
            )
        assert value_of(snapshot, "sim_steps_total") == 30
        assert value_of(snapshot, "sim_spikes_total") == result.total_spikes()

    def test_step_histogram_observes_every_step(self, small_network):
        metrics = MetricsRegistry()
        result = Simulator(small_network, dt=DT, seed=3).run(25, metrics=metrics)
        entry = result.metrics["sim_step_seconds"]["values"][0]
        assert entry["count"] == 25
        assert entry["sum"] == pytest.approx(result.total_seconds, rel=0.05)

    def test_queue_counters_track_enqueued_events(self, small_network):
        metrics = MetricsRegistry()
        sim = Simulator(small_network, dt=DT, seed=3)
        result = sim.run(40, metrics=metrics)
        total_enqueued = sum(
            value_of(result.metrics, "ring_events_enqueued_total", population=name)
            for name in small_network.populations
        )
        assert total_enqueued == sum(
            ring.enqueued_events for ring in sim.router.rings.values()
        )
        assert (
            total_enqueued
            >= result.synaptic_events + result.stimulus_events
        )

    def test_no_registry_means_no_metrics_on_result(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(5)
        assert result.metrics is None

    def test_rerun_with_same_registry_stays_monotone(self, small_network):
        metrics = MetricsRegistry()
        sim = Simulator(small_network, dt=DT, seed=3)
        sim.run(10, metrics=metrics)
        result = sim.run(10, metrics=metrics)
        assert value_of(result.metrics, "sim_steps_total") == 20
        assert value_of(
            result.metrics, "runtime_advances_total", population="exc"
        ) == 20

    def test_compiled_runtime_publishes_advances(self, small_network):
        metrics = MetricsRegistry()
        result = Simulator(
            small_network, ReferenceBackend("Euler"), dt=DT, seed=3
        ).run(15, metrics=metrics)
        assert (
            value_of(
                result.metrics,
                "runtime_advances_total",
                population="exc",
                runtime="compiled",
            )
            == 15
        )

    def test_solver_runtime_publishes_evaluations(self, small_network):
        metrics = MetricsRegistry()
        result = Simulator(
            small_network, ReferenceBackend("RKF45"), dt=DT, seed=3
        ).run(10, metrics=metrics)
        evaluations = value_of(
            result.metrics,
            "runtime_solver_evaluations_total",
            population="exc",
            runtime="solver",
        )
        assert evaluations >= 10


class TestBackendMetrics:
    def test_hardware_backend_publishes_saturation_accounting(self):
        network = build_workload("Izhikevich", scale=0.02, seed=5)
        metrics = MetricsRegistry()
        result = Simulator(
            network, FoldedFlexonBackend(DT), dt=DT, seed=6
        ).run(20, metrics=metrics)
        checked = sum(
            entry["value"]
            for entry in result.metrics["fixedpoint_saturation_checked_total"][
                "values"
            ]
        )
        assert checked > 0
        # A healthy run has the checked counter but no clipped series.
        assert "fixedpoint_saturation_clipped_total" not in result.metrics

    def test_hybrid_backend_publishes_per_population(self):
        network = build_workload("Brunel", scale=0.02, seed=5)
        metrics = MetricsRegistry()
        result = Simulator(
            network, HybridBackend(DT), dt=DT, seed=6
        ).run(10, metrics=metrics)
        for name in network.populations:
            assert value_of(
                result.metrics, "runtime_neurons", population=name
            ) == network.populations[name].n


class TestDiagnosticsMetrics:
    def test_diagnostics_to_dict_is_json_shaped(self):
        # A small folded network whose fixed-point words clip.
        network = build_workload("Nowotny et al.", scale=0.02, seed=5)
        metrics = MetricsRegistry()
        result = Simulator(
            network, FoldedFlexonBackend(DT), dt=DT, seed=6
        ).run(200, metrics=metrics)
        doc = json.loads(json.dumps(result.to_stats_dict()))["diagnostics"]
        assert doc["healthy"] is False
        assert doc["total_saturations"] == result.diagnostics.total_saturations > 0
        assert doc["total_saturations"] == sum(
            entry["total_clipped"] for entry in doc["saturation"].values()
        )
        assert sum(
            entry["value"]
            for entry in result.metrics["fixedpoint_saturation_clipped_total"]["values"]
        ) == doc["total_saturations"]
        # The key the benchmark harness reads: always present, always empty.
        assert doc["fallbacks"] == []
