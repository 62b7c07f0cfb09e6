"""Tests for the delay-bucketed spike ring."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.routing import DelayRing
from tests.conftest import enqueue_events


def _enqueue(ring, target, weight, delay, syn_type=0):
    enqueue_events(ring, [target], [weight], [delay], syn_type)


class TestConstruction:
    def test_rejects_bad_max_delay(self):
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 0)

    def test_rejects_min_delay_out_of_range(self):
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 3, min_delay=0)
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 3, min_delay=4)

    def test_depth_and_min_delay(self):
        ring = DelayRing(4, 2, 5, min_delay=3)
        assert ring.depth == 6
        assert ring.min_delay == ring.snapshot()["min_delay"] == 3


class TestEventAccounting:
    def test_pending_total_is_exact_int(self):
        ring = DelayRing(8, 1, 4)
        _enqueue(ring, 0, 0.25, 2)
        _enqueue(ring, 3, -1.5, 4)
        ring.enqueue_now(np.array([1]), np.array([0.5]), 0)
        assert ring.pending_total() == 3
        assert type(ring.pending_total()) is int
        assert ring.pending_weight() == pytest.approx(0.25 - 1.5 + 0.5)

    def test_current_events_tracks_head_bucket(self):
        ring = DelayRing(8, 1, 4)
        assert ring.current_events() == 0
        _enqueue(ring, 0, 1.0, 1)
        assert ring.current_events() == 0
        ring.rotate()
        assert ring.current_events() == 1
        assert type(ring.current_events()) is int
        ring.rotate()
        assert ring.current_events() == 0
        assert ring.pending_total() == 0

    def test_enqueued_events_is_lifetime_monotone(self):
        ring = DelayRing(8, 1, 4)
        _enqueue(ring, 0, 1.0, 1)
        ring.rotate()
        ring.rotate()
        _enqueue(ring, 1, 1.0, 2)
        assert ring.enqueued_events == 2

    def test_zero_weight_delivery_still_counts(self):
        # The event count tracks deliveries, not magnitudes — a fault
        # injector zeroing weights in place must not turn the bucket
        # "provably silent" (current() stays a writable view).
        ring = DelayRing(4, 1, 2)
        _enqueue(ring, 0, 1.0, 1)
        ring.rotate()
        ring.current()[:] = 0.0
        assert ring.current_events() == 1


class TestSnapshotRestore:
    def test_round_trip(self):
        ring = DelayRing(6, 2, 4, min_delay=2)
        _enqueue(ring, 2, 0.75, 3, syn_type=1)
        ring.rotate()
        _enqueue(ring, 4, -0.5, 1)
        payload = ring.snapshot()

        other = DelayRing(6, 2, 4, min_delay=2)
        other.restore(payload)
        assert other.pending_total() == ring.pending_total()
        assert other.pending_weight() == ring.pending_weight()
        assert other.enqueued_events == ring.enqueued_events
        for _ in range(ring.depth):
            np.testing.assert_array_equal(other.current(), ring.current())
            assert other.current_events() == ring.current_events()
            other.rotate()
            ring.rotate()

    def test_restore_rejects_wrong_shape(self):
        ring = DelayRing(6, 2, 4)
        payload = ring.snapshot()
        with pytest.raises(SimulationError):
            DelayRing(6, 2, 5).restore(payload)

    def test_restore_rejects_bad_head(self):
        ring = DelayRing(6, 2, 4)
        payload = ring.snapshot()
        payload["head"] = ring.depth
        with pytest.raises(SimulationError):
            ring.restore(payload)

    def test_restore_defaults_missing_counts(self):
        # Pre-ring snapshots carried no event counts; restoring one
        # must still work, with counts conservatively zeroed.
        ring = DelayRing(6, 2, 4)
        _enqueue(ring, 1, 1.0, 2)
        payload = ring.snapshot()
        del payload["counts"]
        del payload["enqueued_events"]
        ring.restore(payload)
        assert ring.pending_total() == 0
        assert ring.pending_weight() == pytest.approx(1.0)
