"""Property-based tests on network-level invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.models import create_model
from repro.network import Network, PoissonStimulus, Population, Simulator
from repro.network.projection import SynapseIndex, connect
from repro.routing import DelayRing
from tests.conftest import enqueue_events

DT = 1e-4


class TestSpikeQueueProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),  # target
                st.floats(min_value=0.0, max_value=10.0),  # weight
                st.integers(min_value=1, max_value=5),  # delay
            ),
            max_size=40,
        )
    )
    def test_every_enqueued_weight_is_delivered_exactly_once(self, events):
        queue = DelayRing(n=10, n_synapse_types=1, max_delay=5)
        total_in = 0.0
        for target, weight, delay in events:
            enqueue_events(queue, [target], [weight], [delay])
            total_in += weight
        delivered = 0.0
        for _ in range(6):
            delivered += float(queue.current().sum())
            queue.rotate()
        assert delivered == np.float64(delivered)
        assert abs(delivered - total_in) < 1e-9
        assert queue.pending_weight() == 0.0

    @given(st.integers(min_value=1, max_value=8))
    def test_delivery_happens_exactly_at_the_delay(self, delay):
        queue = DelayRing(n=3, n_synapse_types=1, max_delay=8)
        enqueue_events(queue, [1], [2.5], [delay])
        for step in range(delay + 1):
            current = float(queue.current()[0, 1])
            if step == delay:
                assert current == 2.5
            else:
                assert current == 0.0
            queue.rotate()


class TestConnectivityProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_connect_respects_index_bounds(self, n_pre, n_post, p, seed):
        pre = Population("pre", n_pre, create_model("LIF"))
        post = Population("post", n_post, create_model("LIF"))
        projection = connect(
            pre, post, probability=p, rng=np.random.default_rng(seed)
        )
        if projection.n_synapses:
            assert projection.post_idx.min() >= 0
            assert projection.post_idx.max() < n_post
            assert projection.pre_of_synapses().max() < n_pre
        assert projection.pre_ptr[-1] == projection.n_synapses

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_csr_and_csc_views_agree(self, seed):
        pre = Population("pre", 15, create_model("LIF"))
        post = Population("post", 12, create_model("LIF"))
        projection = connect(
            pre, post, probability=0.3, rng=np.random.default_rng(seed)
        )
        # Every synapse reachable through the CSR view is reachable
        # through the post-sorted view, and vice versa.
        index = SynapseIndex(projection)
        rows, _ = index.outgoing(np.arange(15))
        via_pre = {s for row in rows for s in range(row.start, row.stop)}
        via_post = set(index.incoming(np.arange(12))[0].tolist())
        assert via_pre == via_post == set(range(projection.n_synapses))


class TestSimulatorProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_simulation_is_deterministic_in_seed(self, seed):
        def run_once():
            network = Network("prop")
            pop = network.add_population("p", 15, "LIF")
            network.connect(
                "p", "p", probability=0.2, weight=20.0,
                rng=np.random.default_rng(seed),
            )
            network.add_stimulus(
                PoissonStimulus(pop, 600.0, 40.0, dt=DT, n_sources=3)
            )
            result = Simulator(network, dt=DT, seed=seed).run(150)
            return result.spikes.result("p").spike_pairs()

        assert run_once() == run_once()

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_splitting_a_run_changes_nothing(self, split):
        def run(chunks):
            network = Network("split")
            pop = network.add_population("p", 10, "LIF")
            network.connect(
                "p", "p", probability=0.3, weight=25.0,
                rng=np.random.default_rng(5),
            )
            network.add_stimulus(
                PoissonStimulus(pop, 700.0, 50.0, dt=DT, n_sources=2)
            )
            simulator = Simulator(network, dt=DT, seed=9)
            pairs = set()
            steps_per_chunk = 120 // chunks
            for _ in range(chunks):
                result = simulator.run(steps_per_chunk)
                pairs |= result.spikes.result("p").spike_pairs()
            return pairs, simulator.current_step

        whole, steps_whole = run(1)
        # Note: spike *steps* restart per run() call? No — the
        # simulator keeps its global step counter, so records align.
        parts, steps_parts = run(split)
        if steps_whole == steps_parts:
            assert whole == parts
