"""Property tests: DelayRing vs the legacy SpikeQueue semantics.

The routing layer's core promise is that its ``DelayRing`` delivers
exactly what the original per-population ``SpikeQueue`` did: the same
``(step, syn_type, target, weight)`` deliveries come out, at the same
steps, in the same accumulated buckets. ``_LegacySpikeQueue`` below is
that original implementation (wrapped float ring, per-event delays)
kept verbatim as the reference; Hypothesis interleaves enqueues, stimulus injections, and
rotations arbitrarily and compares every delivered bucket — and the
multiset of deliveries — between the two.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing import DelayRing
from tests.conftest import enqueue_events

N = 6
N_TYPES = 2
MAX_DELAY = 5
MIN_DELAY = 2


class _LegacySpikeQueue:
    """The pre-routing-layer ring buffer, verbatim (the reference)."""

    def __init__(self, n, n_synapse_types, max_delay):
        self.depth = max_delay + 1
        self._ring = np.zeros((self.depth, n_synapse_types, n))
        self._head = 0

    def enqueue(self, post_idx, weights, delays, syn_type):
        if post_idx.size == 0:
            return
        slots = (self._head + delays) % self.depth
        np.add.at(self._ring, (slots, syn_type, post_idx), weights)

    def enqueue_now(self, post_idx, weights, syn_type):
        if post_idx.size == 0:
            return
        np.add.at(self._ring, (self._head, syn_type, post_idx), weights)

    def current(self):
        return self._ring[self._head]

    def rotate(self):
        self._ring[self._head][:] = 0.0
        self._head = (self._head + 1) % self.depth


# One interaction: (kind, target, weight, delay, syn_type).
_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(0, N - 1),
        st.floats(-5.0, 5.0, allow_nan=False, width=32),
        st.integers(MIN_DELAY, MAX_DELAY),
        st.integers(0, N_TYPES - 1),
    ),
    st.tuples(
        st.just("enqueue_now"),
        st.integers(0, N - 1),
        st.floats(-5.0, 5.0, allow_nan=False, width=32),
        st.just(0),
        st.integers(0, N_TYPES - 1),
    ),
    st.tuples(
        st.just("rotate"), st.just(0), st.just(0.0), st.just(0), st.just(0)
    ),
)


def _deliveries(step, bucket):
    """One consumed bucket as (step, syn_type, target, weight) tuples."""
    types, targets = np.nonzero(bucket)
    return {
        (step, int(t), int(g), float(bucket[t, g]))
        for t, g in zip(types, targets)
    }


@given(st.lists(_op, max_size=40))
@settings(max_examples=200, deadline=None)
def test_ring_delivers_legacy_multiset(ops):
    ring = DelayRing(N, N_TYPES, MAX_DELAY)
    legacy = _LegacySpikeQueue(N, N_TYPES, MAX_DELAY)
    ring_seen = set()
    legacy_seen = set()
    step = 0
    events = 0
    for kind, target, weight, delay, syn_type in ops:
        if kind == "rotate":
            np.testing.assert_array_equal(ring.current(), legacy.current())
            ring_seen |= _deliveries(step, ring.current())
            legacy_seen |= _deliveries(step, legacy.current())
            ring.rotate()
            legacy.rotate()
            step += 1
        elif kind == "enqueue":
            idx = np.array([target])
            w = np.array([weight])
            d = np.array([delay])
            enqueue_events(ring, idx, w, d, syn_type)
            legacy.enqueue(idx, w, d, syn_type)
            events += 1
        else:
            idx = np.array([target])
            w = np.array([weight])
            ring.enqueue_now(idx, w, syn_type)
            legacy.enqueue_now(idx, w, syn_type)
            events += 1
        assert ring.enqueued_events == events
    # Drain both rings completely: every still-pending bucket agrees.
    for _ in range(ring.depth):
        np.testing.assert_array_equal(ring.current(), legacy.current())
        ring_seen |= _deliveries(step, ring.current())
        legacy_seen |= _deliveries(step, legacy.current())
        ring.rotate()
        legacy.rotate()
        step += 1
    assert ring_seen == legacy_seen
    assert ring.pending_weight() == 0.0
    assert type(ring.enqueued_events) is int


@given(st.lists(_op, max_size=30))
@settings(max_examples=100, deadline=None)
def test_snapshot_restore_preserves_future_deliveries(ops):
    ring = DelayRing(N, N_TYPES, MAX_DELAY)
    for kind, target, weight, delay, syn_type in ops:
        if kind == "rotate":
            ring.rotate()
        elif kind == "enqueue":
            enqueue_events(ring, [target], [weight], [delay], syn_type)
        else:
            ring.enqueue_now(np.array([target]), np.array([weight]), syn_type)
    clone = DelayRing(N, N_TYPES, MAX_DELAY)
    clone.restore(ring.snapshot())
    assert clone.enqueued_events == ring.enqueued_events
    for _ in range(ring.depth):
        np.testing.assert_array_equal(clone.current(), ring.current())
        clone.rotate()
        ring.rotate()
