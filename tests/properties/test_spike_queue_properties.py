"""Property test: the spike queue (DelayRing) vs a brute-force dense model.

The ring buffer's contract is simple to state — a weight enqueued with
delay ``d`` at step ``t`` appears in the input popped at step ``t+d``,
weights accumulate additively, and ``enqueue_now`` lands in the very
slot popped this step — so we model it with a dense ``(steps, types,
n)`` array and let Hypothesis interleave enqueue / enqueue_now / rotate
arbitrarily. Any head-pointer or wrap-around bug diverges from the
dense model immediately.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.models import create_model
from repro.network import Population, Projection
from repro.routing import DelayRing, SpikeRouter
from tests.conftest import enqueue_events

N = 7
N_TYPES = 2
MAX_DELAY = 4
HORIZON = 40  # dense-model steps; generous upper bound for ops lists

# One queue interaction: (kind, target, weight, delay, syn_type).
_op = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(0, N - 1),
        st.floats(-5.0, 5.0, allow_nan=False, width=32),
        st.integers(1, MAX_DELAY),
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
        st.just("rotate"),
        st.just(0),
        st.just(0.0),
        st.just(0),
        st.just(0),
    ),
)


@given(st.lists(_op, max_size=30))
@settings(max_examples=200, deadline=None)
def test_interleaved_ops_match_dense_model(ops):
    queue = DelayRing(N, N_TYPES, MAX_DELAY)
    dense = np.zeros((HORIZON, N_TYPES, N))
    now = 0
    for kind, target, weight, delay, syn_type in ops:
        if kind == "rotate":
            np.testing.assert_array_equal(queue.current(), dense[now])
            queue.rotate()
            now += 1
        elif kind == "enqueue":
            enqueue_events(queue, [target], [weight], [delay], syn_type)
            dense[now + delay, syn_type, target] += weight
        else:  # enqueue_now
            queue.enqueue_now(
                np.array([target]), np.array([weight]), syn_type
            )
            dense[now, syn_type, target] += weight
    # Drain: every still-pending slot must match the dense model too.
    for offset in range(MAX_DELAY + 1):
        np.testing.assert_array_equal(queue.current(), dense[now + offset])
        queue.rotate()
    assert queue.pending_weight() == 0.0


@given(st.integers(min_value=-3, max_value=12))
@settings(max_examples=50, deadline=None)
def test_out_of_range_delays_raise(delay):
    # The ring no longer looks at delays per event: a projection
    # rejects delays below one step when it is built, and the router
    # rejects a projection that outruns the ring when it is bound.
    pre = Population("pre", 1, create_model("LIF"))
    post = Population("post", N, create_model("LIF"))
    assert post.n_synapse_types == N_TYPES
    queue = DelayRing(N, N_TYPES, MAX_DELAY)
    router = SpikeRouter({"post": queue})
    synapse = (np.array([0]), np.array([0]), np.array([1.0]))
    try:
        projection = Projection(pre, post, *synapse, np.array([delay]), 0)
        router.bind([projection])
    except (ConfigurationError, SimulationError):
        assert not 1 <= delay <= MAX_DELAY, f"delay {delay} is in range"
        # A rejected projection never reached the ring.
        assert queue.enqueued_events == 0
    else:
        assert 1 <= delay <= MAX_DELAY, f"delay {delay} accepted"
        queue.enqueue(*projection.synapses_of(np.array([0])), 0)
        assert queue.enqueued_events == 1
        assert queue.pending_weight() == 1.0
