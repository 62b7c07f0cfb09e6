"""Tests for the per-population spike router."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.network import Network
from repro.routing import SpikeRouter
from repro.telemetry import MetricsRegistry
from tests.conftest import enqueue_events


def _network():
    net = Network("routed")
    net.add_population("a", 6, "LIF")
    net.add_population("b", 4, "LIF")
    net.add_population("isolated", 3, "LIF")
    rng = np.random.default_rng(0)
    net.connect("a", "b", probability=1.0, delay_steps=3, delay_jitter=4,
                rng=rng)
    net.connect("b", "b", probability=1.0, delay_steps=2, rng=rng)
    net.connect("b", "a", probability=1.0, delay_steps=5, rng=rng)
    return net


class TestSizing:
    def test_rings_sized_from_incoming_delays(self):
        router = SpikeRouter.from_network(_network())
        # a receives only the delay-5 projection from b.
        assert router.ring("a").depth == 6
        # b receives delays 3..7 (jittered) from a and fixed 2 from b.
        network = _network()
        jittered = network.projections[0].max_delay
        assert router.ring("b").depth == jittered + 1 >= 4

    def test_population_without_incoming_gets_minimal_ring(self):
        router = SpikeRouter.from_network(_network())
        ring = router.ring("isolated")
        assert ring.depth == 2

    def test_unknown_population_raises_with_known_names(self):
        router = SpikeRouter.from_network(_network())
        with pytest.raises(SimulationError, match="isolated"):
            router.ring("nope")


class TestStepping:
    def test_rotate_all_advances_every_ring(self):
        router = SpikeRouter.from_network(_network())
        enqueue_events(router.ring("a"), [0], [1.0], [5])
        enqueue_events(router.ring("b"), [1], [2.0], [2])
        for _ in range(5):
            router.rotate_all()
        # The delay-5 event now sits in the current bucket, consumed
        # this step; the next rotation clears it.
        assert router.ring("a").current()[0, 0] == 1.0
        router.rotate_all()
        for ring in router.rings.values():
            assert ring.pending_weight() == 0.0
        assert [ring.enqueued_events for ring in router.rings.values()] == [
            1, 1, 0
        ]


class TestSnapshotRestore:
    def test_round_trip(self):
        router = SpikeRouter.from_network(_network())
        enqueue_events(router.ring("b"), [0, 3], [0.5, 0.25], [2, 3])
        payload = router.snapshot()
        other = SpikeRouter.from_network(_network())
        other.restore(payload)
        for _ in range(router.ring("b").depth):
            np.testing.assert_array_equal(
                other.ring("b").current(), router.ring("b").current()
            )
            other.rotate_all()
            router.rotate_all()

    def test_restore_rejects_population_mismatch(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        del payload["isolated"]
        with pytest.raises(SimulationError, match="isolated"):
            router.restore(payload)

    def test_restore_rejects_unexpected_population(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        payload["ghost"] = payload["a"]
        with pytest.raises(SimulationError, match="ghost"):
            router.restore(payload)

    def test_restore_names_population_on_non_dict_payload(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        payload["b"] = [1, 2, 3]
        with pytest.raises(SimulationError, match="'b'.*must be a dict"):
            router.restore(payload)

    def test_restore_names_population_on_missing_field(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        del payload["a"]["head"]
        with pytest.raises(SimulationError, match="'a'.*'head'"):
            router.restore(payload)

    def test_restore_names_population_on_depth_mismatch(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        ring = payload["b"]["ring"]
        payload["b"]["ring"] = np.zeros((ring.shape[0] + 2,) + ring.shape[1:])
        with pytest.raises(SimulationError, match="'b'.*depth mismatch"):
            router.restore(payload)

    def test_restore_names_population_on_size_mismatch(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        ring = payload["a"]["ring"]
        payload["a"]["ring"] = np.zeros(ring.shape[:2] + (ring.shape[2] + 1,))
        with pytest.raises(SimulationError, match="'a'.*size mismatch"):
            router.restore(payload)

    def test_restore_names_population_on_bad_head(self):
        router = SpikeRouter.from_network(_network())
        payload = router.snapshot()
        payload["b"]["head"] = router.ring("b").depth
        with pytest.raises(SimulationError, match="'b'.*head"):
            router.restore(payload)

    def test_failed_validation_mutates_nothing(self):
        # Validation happens for every ring before any restore touches
        # state: a payload bad in one population leaves the whole
        # router untouched, not half-restored.
        router = SpikeRouter.from_network(_network())
        enqueue_events(router.ring("a"), [1], [3.0], [5])
        payload = router.snapshot()
        payload["isolated"]["head"] = 99
        before = router.ring("a").snapshot()
        with pytest.raises(SimulationError, match="'isolated'"):
            router.restore(payload)
        after = router.ring("a").snapshot()
        for field in ("ring", "head"):
            np.testing.assert_array_equal(after[field], before[field])


class TestTelemetry:
    def test_publish_metrics_keeps_counts_integral(self):
        router = SpikeRouter.from_network(_network())
        enqueue_events(router.ring("a"), [0], [1.0], [5])
        metrics = MetricsRegistry()
        router.publish_metrics(metrics)
        snapshot = metrics.snapshot()
        enqueued = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in snapshot["ring_events_enqueued_total"]["values"]
        }
        assert enqueued[(("population", "a"),)] == 1
        assert type(enqueued[(("population", "a"),)]) is int
        pending = {
            entry["labels"]["population"]: entry["value"]
            for entry in snapshot["ring_pending_weight"]["values"]
        }
        assert pending == {"a": 1.0, "b": 0.0, "isolated": 0.0}
