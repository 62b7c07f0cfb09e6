"""Tests for the delay-bucketed spike ring."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.routing import DelayRing
from tests.conftest import enqueue_events
from tests.oracles.eager_ring import EagerRing


def _enqueue(ring, target, weight, delay, syn_type=0):
    enqueue_events(ring, [target], [weight], [delay], syn_type)


class TestConstruction:
    def test_rejects_bad_max_delay(self):
        with pytest.raises(SimulationError):
            DelayRing(4, 1, 0)

    def test_depth(self):
        ring = DelayRing(4, 2, 5)
        assert ring.depth == 6
        assert ring.snapshot()["ring"].shape == (6, 2, 4)
        assert set(ring.snapshot()) == {"ring", "head", "enqueued_events"}


class TestEventAccounting:
    def test_pending_weight_sums_the_queued_weight(self):
        ring = DelayRing(8, 1, 4)
        _enqueue(ring, 0, 0.25, 2)
        _enqueue(ring, 3, -1.5, 4)
        ring.enqueue_now(np.array([1]), np.array([0.5]), 0)
        assert ring.pending_weight() == pytest.approx(0.25 - 1.5 + 0.5)
        assert ring.enqueued_events == 3

    def test_enqueued_events_is_lifetime_monotone(self):
        ring = DelayRing(8, 1, 4)
        _enqueue(ring, 0, 1.0, 1)
        ring.rotate()
        ring.rotate()
        _enqueue(ring, 1, 1.0, 2)
        assert ring.enqueued_events == 2
        assert type(ring.enqueued_events) is int

    def test_zero_weight_delivery_still_counts(self):
        # The lifetime count tracks deliveries, not magnitudes: a
        # zero-weight arrival is one more enqueued event, and the bucket
        # it lands in reads as silent input.
        ring = DelayRing(4, 1, 2)
        _enqueue(ring, 0, 0.0, 1)
        ring.rotate()
        assert ring.enqueued_events == 1
        assert not ring.current().any()


class TestSnapshotRestore:
    def test_round_trip(self):
        ring = DelayRing(6, 2, 4)
        _enqueue(ring, 2, 0.75, 3, syn_type=1)
        ring.rotate()
        _enqueue(ring, 4, -0.5, 1)
        payload = ring.snapshot()

        other = DelayRing(6, 2, 4)
        other.restore(payload)
        assert other.pending_weight() == ring.pending_weight()
        assert other.enqueued_events == ring.enqueued_events
        for _ in range(ring.depth):
            np.testing.assert_array_equal(other.current(), ring.current())
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

    def test_restore_ignores_the_counts_of_an_older_payload(self):
        # Payloads written before the ring carried weights only also
        # hold per-bucket event counts and the smallest incoming delay.
        # A restore ignores both keys: it takes the same buckets and
        # head, and the ring resumes exactly as one restored without.
        ring = DelayRing(6, 2, 4)
        _enqueue(ring, 1, 1.0, 2)
        ring.rotate()
        ring.rotate()
        ring.rotate()
        _enqueue(ring, 5, -0.25, 4, syn_type=1)
        payload = ring.snapshot()
        older = dict(
            payload,
            counts=np.array([0, 0, 1, 0, 0], dtype=np.int64),
            min_delay=2,
        )
        plain, restored = DelayRing(6, 2, 4), DelayRing(6, 2, 4)
        plain.restore(payload)
        restored.restore(older)
        assert restored.snapshot()["head"] == payload["head"] == 3
        for key, value in restored.snapshot().items():
            np.testing.assert_array_equal(value, payload[key])
        for _ in range(2 * ring.depth):
            _enqueue(restored, 0, 0.5, 3)
            _enqueue(plain, 0, 0.5, 3)
            assert restored.current().tobytes() == plain.current().tobytes()
            restored.rotate()
            plain.rotate()
        assert restored.snapshot()["ring"].tobytes() == (
            plain.snapshot()["ring"].tobytes()
        )

    def test_restore_defaults_missing_enqueued_events(self):
        ring = DelayRing(6, 2, 4)
        _enqueue(ring, 1, 1.0, 2)
        payload = ring.snapshot()
        del payload["enqueued_events"]
        ring.restore(payload)
        assert ring.enqueued_events == 0
        assert ring.pending_weight() == pytest.approx(1.0)


class TestLazyClearing:
    """A rotation only advances the head; consumed buckets are cleared
    when the ring compacts. Driven beside :class:`EagerRing`, which
    zeroes each consumed bucket, everything a caller reads agrees bit
    for bit, before and after a restore in mid-cycle."""

    @staticmethod
    def _drive(rng, rings, n, n_types, depth):
        stride = n_types * n
        for _ in range(rng.integers(0, 4)):
            size = int(rng.integers(0, 12))
            targets = (
                rng.integers(1, depth, size) * stride + rng.integers(0, n, size)
            ).astype(np.int32)
            weights = rng.normal(size=size)
            if rng.random() < 0.3:  # a constant table's scalar weight
                weights = np.float64(rng.normal())
            syn_type = int(rng.integers(0, n_types))
            for ring in rings:
                ring.enqueue(targets, weights, syn_type)
        if rng.random() < 0.5:
            post = rng.integers(0, n, int(rng.integers(1, 6)))  # repeats
            weight = np.float64(rng.normal())
            for ring in rings:
                ring.enqueue_now(post, weight, 0)
        if rng.random() < 0.5:
            weights = rng.normal(size=2)
            for ring in rings:
                ring.enqueue_now(slice(1, 3), weights, n_types - 1, events=2)

    @staticmethod
    def _assert_same(ring, eager):
        assert ring.current().tobytes() == eager.current().tobytes()
        ours, theirs = ring.snapshot(), eager.snapshot()
        assert ours["ring"].tobytes() == theirs["ring"].tobytes()
        assert ours["head"] == theirs["head"]
        assert ring.pending_weight() == eager.pending_weight()
        assert ring.enqueued_events == eager.enqueued_events

    @pytest.mark.parametrize("seed, n, n_types, max_delay", [
        (1, 5, 2, 4), (2, 7, 1, 1), (3, 3, 3, 9),
    ])
    def test_every_read_equals_a_ring_that_clears_every_step(
        self, seed, n, n_types, max_delay
    ):
        rng = np.random.default_rng(seed)
        ring, eager = DelayRing(n, n_types, max_delay), EagerRing(n, n_types, max_delay)
        depth = ring.depth
        restore_at = 2 * depth + depth // 2  # head mid-cycle, stale buckets behind it
        for step in range(4 * depth):
            self._drive(rng, (ring, eager), n, n_types, depth)
            self._assert_same(ring, eager)
            if step == restore_at:
                ring.restore(eager.snapshot())
                self._assert_same(ring, eager)
            ring.rotate()
            eager.rotate()
            self._assert_same(ring, eager)
