"""Tests for populations, spike queues, stimuli, recorders, Network."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.models import create_model
from repro.network import (
    Network,
    PatternStimulus,
    PoissonStimulus,
    Population,
    Projection,
    SpikeRecorder,
    StateRecorder,
)
from repro.routing import DelayRing, SpikeRouter
from tests.conftest import enqueue_events, stimulus_rows

DT = 1e-4


class TestPopulation:
    def test_basic_properties(self):
        pop = Population("exc", 100, create_model("LIF"))
        assert len(pop) == 100
        assert pop.n_synapse_types == 2

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            Population("", 10, create_model("LIF"))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            Population("p", 0, create_model("LIF"))

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ConfigurationError, match="size n must be an integer"):
            Population("c", n, create_model("LIF"))


class TestSpikeQueue:
    """The per-population spike queue contract, held by ``DelayRing``."""

    def test_enqueue_and_deliver_after_delay(self):
        queue = DelayRing(n=5, n_synapse_types=2, max_delay=3)
        enqueue_events(queue, [2], [0.7], [2], syn_type=0)
        assert queue.current()[0, 2] == 0.0
        queue.rotate()
        assert queue.current()[0, 2] == 0.0
        queue.rotate()
        assert queue.current()[0, 2] == pytest.approx(0.7)

    def test_enqueue_now_lands_in_current_slot(self):
        queue = DelayRing(5, 2, 3)
        queue.enqueue_now(np.array([1]), np.array([0.3]), syn_type=1)
        assert queue.current()[1, 1] == pytest.approx(0.3)

    def test_accumulates_multiple_events_to_same_target(self):
        queue = DelayRing(4, 1, 2)
        enqueue_events(queue, [0, 0, 0], [0.1, 0.2, 0.3], [1, 1, 1])
        queue.rotate()
        assert queue.current()[0, 0] == pytest.approx(0.6)

    def test_slot_cleared_after_rotation(self):
        queue = DelayRing(3, 1, 2)
        queue.enqueue_now(np.array([0]), np.array([1.0]), 0)
        queue.rotate()
        for _ in range(3):
            queue.rotate()
        assert queue.pending_weight() == 0.0

    def test_delay_out_of_range_raises(self):
        # The range check is a build-time one: a projection rejects
        # delays below one step and ring-target overflow, and binding
        # rejects a projection whose delays outrun the ring.
        pre = Population("pre", 2, create_model("LIF"))
        post = Population("post", 3, create_model("LIF"))
        one = np.array([0])
        with pytest.raises(ConfigurationError, match="at least one"):
            Projection(pre, post, one, one, np.array([1.0]), np.array([0]), 0)
        with pytest.raises(ConfigurationError, match="'pre'.*'post'|'post'.*'pre'"):
            Projection(
                pre, post, one, one, np.array([1.0]), np.array([2**30]), 0
            )
        late = Projection(
            pre, post, one, one, np.array([1.0]), np.array([5]), 0
        )
        router = SpikeRouter({"post": DelayRing(3, post.n_synapse_types, 2)})
        with pytest.raises(SimulationError, match="'pre->post'.*'post'"):
            router.bind([late])
        assert router.ring("post").enqueued_events == 0

    def test_weight_conservation(self):
        queue = DelayRing(10, 2, 5)
        rng = np.random.default_rng(0)
        total = 0.0
        for _ in range(20):
            idx = rng.integers(0, 10, size=4)
            weights = rng.random(4)
            delays = rng.integers(1, 6, size=4)
            enqueue_events(queue, idx, weights, delays, syn_type=0)
            total += weights.sum()
        assert queue.pending_weight() == pytest.approx(total)


class TestStimuli:
    def test_poisson_rate_statistics(self):
        pop = Population("p", 200, create_model("LIF"))
        stim = PoissonStimulus(pop, rate_hz=1000.0, weight=1.0, dt=DT)
        rows, events, _ = stimulus_rows(stim, 1000, seed=1)
        # Expected: 200 neurons x p=0.1 x 1000 steps = 20000.
        assert 18000 < sum(events) < 22000
        assert np.count_nonzero(rows) == sum(events)

    def test_poisson_zero_rate_is_silent(self):
        pop = Population("p", 10, create_model("LIF"))
        stim = PoissonStimulus(pop, rate_hz=0.0, weight=1.0, dt=DT)
        rows, events, _ = stimulus_rows(stim, 40, seed=2)
        assert sum(events) == 0 and not rows.any()

    def test_poisson_multiple_sources_stack_weight(self):
        pop = Population("p", 50, create_model("LIF"))
        stim = PoissonStimulus(
            pop, rate_hz=5000.0, weight=0.5, dt=DT, n_sources=10
        )
        rows, _, _ = stimulus_rows(stim, 1, seed=3)
        assert np.any(rows[0] > 0.5)  # some neurons get several events
        assert set(np.unique(rows[0] / 0.5)) <= set(range(11))

    def test_poisson_slice_targets_subset(self):
        pop = Population("p", 10, create_model("LIF"))
        stim = PoissonStimulus(
            pop, rate_hz=1e6, weight=1.0, dt=DT, neuron_slice=slice(0, 3)
        )
        rows, events, _ = stimulus_rows(stim, 3, seed=4)
        # rate * dt >= 1 clamps to p = 1: every target, every step.
        assert events == [3, 3, 3]
        assert np.array_equal(np.nonzero(rows[0])[0], [0, 1, 2])

    def test_poisson_rejects_negative_rate(self):
        pop = Population("p", 10, create_model("LIF"))
        with pytest.raises(ConfigurationError):
            PoissonStimulus(pop, rate_hz=-1.0, weight=1.0, dt=DT)

    def test_pattern_fires_at_steps(self):
        pop = Population("p", 10, create_model("LIF"))
        stim = PatternStimulus(pop, {3: [1, 2]}, weight=0.5)
        assert stim.generate(0).size == 0
        assert stim.generate(3).tolist() == [1, 2]
        rows, events, _ = stimulus_rows(stim, 5, seed=0)
        assert events == [0, 0, 0, 2, 0]
        assert np.all(rows[3, [1, 2]] == 0.5)
        assert np.count_nonzero(rows) == 2

    def test_pattern_repeats_with_period(self):
        pop = Population("p", 10, create_model("LIF"))
        stim = PatternStimulus(pop, {1: [0]}, weight=1.0, period=4)
        assert stim.generate(5).size == 1
        assert stim.generate(6).size == 0

    def test_pattern_rejects_out_of_range_target(self):
        pop = Population("p", 4, create_model("LIF"))
        with pytest.raises(ConfigurationError):
            PatternStimulus(pop, {0: [9]}, weight=1.0)

    def test_stimulus_rejects_bad_synapse_type(self):
        pop = Population("p", 4, create_model("LIF"))
        with pytest.raises(ConfigurationError):
            PoissonStimulus(pop, 10.0, 1.0, DT, syn_type=7)


class TestRecorders:
    def test_spike_recorder_collects_pairs(self):
        recorder = SpikeRecorder()
        recorder.record("a", 0, np.array([True, False, True]))
        recorder.record("a", 2, np.array([False, True, False]))
        record = recorder.result("a")
        assert record.n_spikes == 3
        assert record.spike_pairs() == {(0, 0), (0, 2), (2, 1)}

    def test_spike_record_rate(self):
        recorder = SpikeRecorder()
        for step in range(10):
            recorder.record("a", step, np.array([True]))
        record = recorder.result("a")
        assert record.rate_hz(1, 10, DT) == pytest.approx(10 / (10 * DT))

    def test_spikes_of_single_neuron(self):
        recorder = SpikeRecorder()
        recorder.record("a", 4, np.array([False, True]))
        recorder.record("a", 7, np.array([False, True]))
        assert recorder.result("a").spikes_of(1).tolist() == [4, 7]

    def test_empty_population_record(self):
        recorder = SpikeRecorder()
        record = recorder.result("missing")
        assert record.n_spikes == 0
        assert record.rate_hz(10, 100, DT) == 0.0

    def test_total_spikes(self):
        recorder = SpikeRecorder()
        recorder.record("a", 0, np.array([True, True]))
        recorder.record("b", 0, np.array([True]))
        assert recorder.total_spikes() == 3

    def test_state_recorder_traces(self):
        recorder = StateRecorder("pop", variables=("v",), neurons=[0, 2])
        state = {"v": np.array([0.1, 0.2, 0.3])}
        recorder.sample(state)
        state["v"][:] = [0.4, 0.5, 0.6]
        recorder.sample(state)
        trace = recorder.trace("v")
        assert trace.shape == (2, 2)
        np.testing.assert_allclose(trace[:, 1], [0.3, 0.6])

    def test_state_recorder_empty_trace(self):
        recorder = StateRecorder("pop", variables=("v",))
        assert recorder.trace("v").shape == (0, 1)


class TestNetwork:
    def test_builders_and_counts(self):
        net = Network("n")
        net.add_population("a", 10, "LIF")
        net.add_population("b", 5, "LIF")
        net.connect("a", "b", probability=1.0, weight=0.1)
        assert net.n_neurons == 15
        assert net.n_synapses == 50

    def test_duplicate_population_rejected(self):
        net = Network()
        net.add_population("a", 10, "LIF")
        with pytest.raises(ConfigurationError):
            net.add_population("a", 5, "LIF")

    def test_connect_unknown_population_rejected(self):
        net = Network()
        net.add_population("a", 10, "LIF")
        with pytest.raises(ConfigurationError):
            net.connect("a", "ghost")

    def test_stimulus_must_target_member_population(self):
        net = Network()
        net.add_population("a", 10, "LIF")
        foreign = Population("x", 5, create_model("LIF"))
        with pytest.raises(ConfigurationError):
            net.add_stimulus(PoissonStimulus(foreign, 10.0, 1.0, DT))

    def test_max_delay_over_projections(self):
        net = Network()
        net.add_population("a", 10, "LIF")
        net.connect("a", "a", probability=0.5, delay_steps=4, delay_jitter=3)
        assert net.max_delay() >= 4

    def test_projections_into_and_from(self):
        net = Network()
        net.add_population("a", 10, "LIF")
        net.add_population("b", 10, "LIF")
        net.connect("a", "b", probability=0.5)
        assert len(net.projections_into("b")) == 1
        assert len(net.projections_from("a")) == 1
        assert net.projections_into("a") == []

    def test_model_by_name_with_kwargs(self):
        net = Network()
        pop = net.add_population("a", 3, "LIF")
        assert pop.model.name == "LIF"
