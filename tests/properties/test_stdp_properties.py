"""Property-based tests for the STDP rule's invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.models import create_model
from repro.network import Population, Projection
from repro.plasticity import PairSTDP
from tests.oracles.pair_stdp import ReferencePairSTDP

DT = 1e-4

spike_patterns = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=4), max_size=3),
        st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    ),
    max_size=50,
)


def _projection(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    pre = Population("pre", 5, create_model("LIF"))
    post = Population("post", 4, create_model("LIF"))
    n = 12
    return Projection(
        pre,
        post,
        pre_idx=rng.integers(0, 5, n),
        post_idx=rng.integers(0, 4, n),
        weights=rng.random(n),
        delays=np.ones(n, dtype=np.int64),
        syn_type=0,
    )


class TestStdpInvariants:
    @given(spike_patterns)
    @settings(max_examples=60, deadline=None)
    def test_weights_always_within_bounds(self, pattern):
        projection = _projection()
        rule = PairSTDP(a_plus=0.5, a_minus=0.5, w_min=0.0, w_max=1.0)
        rule.attach(projection)
        for pre_fired, post_fired in pattern:
            rule.step(
                np.unique(np.array(pre_fired, dtype=np.int64)),
                np.unique(np.array(post_fired, dtype=np.int64)),
                DT,
            )
            assert np.all(projection.weights >= 0.0)
            assert np.all(projection.weights <= 1.0)

    @given(spike_patterns)
    @settings(max_examples=40, deadline=None)
    def test_traces_never_negative(self, pattern):
        projection = _projection()
        rule = PairSTDP()
        rule.attach(projection)
        for pre_fired, post_fired in pattern:
            rule.step(
                np.unique(np.array(pre_fired, dtype=np.int64)),
                np.unique(np.array(post_fired, dtype=np.int64)),
                DT,
            )
            assert np.all(rule.pre_trace >= 0.0)
            assert np.all(rule.post_trace >= 0.0)

    @given(spike_patterns)
    @settings(max_examples=40, deadline=None)
    def test_silence_changes_nothing(self, pattern):
        # Replaying any pattern, then running silent steps, never
        # changes the weights (traces decay; weights only move on
        # spikes).
        projection = _projection()
        rule = PairSTDP(a_plus=0.3, a_minus=0.3)
        rule.attach(projection)
        empty = np.empty(0, dtype=np.int64)
        for pre_fired, post_fired in pattern:
            rule.step(
                np.unique(np.array(pre_fired, dtype=np.int64)),
                np.unique(np.array(post_fired, dtype=np.int64)),
                DT,
            )
        frozen = projection.weights.copy()
        for _ in range(20):
            rule.step(empty, empty, DT)
        np.testing.assert_array_equal(projection.weights, frozen)

    @given(spike_patterns)
    @settings(max_examples=60, deadline=None)
    def test_lazy_and_dense_modes_are_bit_identical(self, pattern):
        # The compiled step and the per-synapse reference share the
        # same event arithmetic; any spike pattern must therefore
        # produce *bit-identical* weights, traces and counters after
        # every step — not merely approximately equal ones.
        rule = PairSTDP(a_plus=0.2, a_minus=0.25)
        rule.attach(_projection(rng_seed=7))
        reference = ReferencePairSTDP(rule)
        for pre_fired, post_fired in pattern:
            pre = np.unique(np.array(pre_fired, dtype=np.int64))
            post = np.unique(np.array(post_fired, dtype=np.int64))
            rule.step(pre, post, DT)
            reference.step(pre, post, DT)
            reference.assert_matches()
        assert rule.trace_refreshes + rule.deferred_updates >= 9 * len(pattern)

    @given(spike_patterns, st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_lazy_trace_checkpoint_round_trip(self, pattern, cut):
        # Snapshot mid-pattern, restore into a fresh rule, replay the
        # tail: the resumed run must be bit-identical to the
        # uninterrupted one — traces, timestamps, counters, weights.
        cut = min(cut, len(pattern))

        def events(chunk, rule):
            for pre_fired, post_fired in chunk:
                rule.step(
                    np.unique(np.array(pre_fired, dtype=np.int64)),
                    np.unique(np.array(post_fired, dtype=np.int64)),
                    DT,
                )

        straight = PairSTDP(a_plus=0.2, a_minus=0.25)
        straight.attach(_projection(rng_seed=11))
        events(pattern, straight)

        first = PairSTDP(a_plus=0.2, a_minus=0.25)
        first.attach(_projection(rng_seed=11))
        events(pattern[:cut], first)
        payload = first.snapshot()

        resumed = PairSTDP(a_plus=0.2, a_minus=0.25)
        resumed.attach(_projection(rng_seed=11))
        resumed.restore(payload)
        events(pattern[cut:], resumed)

        np.testing.assert_array_equal(
            resumed.projection.weights, straight.projection.weights
        )
        np.testing.assert_array_equal(
            resumed.pre_trace, straight.pre_trace
        )
        np.testing.assert_array_equal(
            resumed.post_trace, straight.post_trace
        )
        assert resumed.steps_seen == straight.steps_seen
        assert resumed.applied_updates == straight.applied_updates
        assert resumed.deferred_updates == straight.deferred_updates

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_updates_are_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        events = [
            (
                rng.integers(0, 5, rng.integers(0, 3)),
                rng.integers(0, 4, rng.integers(0, 3)),
            )
            for _ in range(30)
        ]

        def run():
            projection = _projection(rng_seed=3)
            rule = PairSTDP(a_plus=0.2, a_minus=0.25)
            rule.attach(projection)
            for pre_fired, post_fired in events:
                rule.step(
                    np.unique(pre_fired.astype(np.int64)),
                    np.unique(post_fired.astype(np.int64)),
                    DT,
                )
            return projection.weights.copy()

        np.testing.assert_array_equal(run(), run())
