"""Tests for the three-phase simulator and the reference backend."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.network import (
    Network,
    PatternStimulus,
    PoissonStimulus,
    ReferenceBackend,
    Simulator,
    StateRecorder,
)

DT = 1e-4


class TestSimulator:
    def test_runs_and_reports_counters(self, small_network):
        sim = Simulator(small_network, dt=DT, seed=3)
        result = sim.run(200)
        assert result.n_steps == 200
        assert result.neuron_updates == 200 * small_network.n_neurons
        assert result.stimulus_events > 0
        assert set(result.phases) == {"stimulus", "neuron", "synapse"}

    def test_phase_fractions_sum_to_one(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(50)
        assert sum(result.phase_fractions().values()) == pytest.approx(1.0)

    def test_deterministic_given_seed(self, rng):
        def build():
            net = Network("d")
            pop = net.add_population("p", 20, "LIF")
            net.add_stimulus(
                PoissonStimulus(pop, 500.0, 30.0, dt=DT, n_sources=5)
            )
            return net

        res_a = Simulator(build(), dt=DT, seed=9).run(300)
        res_b = Simulator(build(), dt=DT, seed=9).run(300)
        assert (
            res_a.spikes.result("p").spike_pairs()
            == res_b.spikes.result("p").spike_pairs()
        )

    def test_different_seeds_differ(self):
        def build():
            net = Network("d")
            pop = net.add_population("p", 20, "LIF")
            net.add_stimulus(
                PoissonStimulus(pop, 500.0, 30.0, dt=DT, n_sources=5)
            )
            return net

        res_a = Simulator(build(), dt=DT, seed=1).run(300)
        res_b = Simulator(build(), dt=DT, seed=2).run(300)
        assert (
            res_a.spikes.result("p").spike_pairs()
            != res_b.spikes.result("p").spike_pairs()
        )

    def test_spike_propagates_after_exact_delay(self):
        # One source neuron wired to one target with delay 5: the
        # target's input arrives exactly 5 steps after the source fires.
        net = Network("delay")
        src = net.add_population("src", 1, "LIF")
        net.add_population("dst", 1, "LIF")
        net.connect("src", "dst", probability=1.0, weight=500.0,
                    delay_steps=5, allow_self=True)
        # Kick the source over threshold at step 2.
        net.add_stimulus(PatternStimulus(src, {2: [0]}, weight=500.0))
        backend = ReferenceBackend("Euler")
        sim = Simulator(net, backend, dt=DT, seed=0)
        result = sim.run(12)
        src_spikes = result.spikes.result("src").spikes_of(0)
        dst_spikes = result.spikes.result("dst").spikes_of(0)
        assert src_spikes.tolist() == [2]
        assert dst_spikes.tolist() == [7]  # 2 + delay 5

    def test_state_recorder_sampled_every_step(self, small_network):
        recorder = StateRecorder("exc", variables=("v",), neurons=[0])
        Simulator(small_network, dt=DT, seed=3).run(
            40, state_recorders=[recorder]
        )
        assert recorder.trace("v").shape == (40, 1)

    def test_zero_steps(self, small_network):
        result = Simulator(small_network, dt=DT, seed=0).run(0)
        assert result.total_spikes() == 0

    def test_negative_steps_raises(self, small_network):
        with pytest.raises(SimulationError):
            Simulator(small_network, dt=DT, seed=0).run(-1)

    def test_bad_dt_raises(self, small_network):
        for dt in (0.0, -DT, float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="positive and finite"):
                Simulator(small_network, dt=dt)

    def test_current_step_advances(self, small_network):
        sim = Simulator(small_network, dt=DT, seed=0)
        sim.run(10)
        sim.run(5)
        assert sim.current_step == 15

    def test_record_spikes_false_skips_recording(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(
            100, record_spikes=False
        )
        assert result.total_spikes() == 0
        assert result.neuron_updates > 0


class TestReferenceBackend:
    def test_requires_prepare(self):
        backend = ReferenceBackend()
        with pytest.raises(SimulationError):
            backend.advance("x", np.zeros((2, 1)), DT)

    def test_unknown_population(self, small_network):
        backend = ReferenceBackend()
        backend.prepare(small_network)
        with pytest.raises(SimulationError):
            backend.advance("ghost", np.zeros((2, 1)), DT)

    def test_state_of_returns_live_state(self, small_network):
        backend = ReferenceBackend()
        backend.prepare(small_network)
        state = backend.state_of("exc")
        assert state["v"].shape == (40,)

    def test_rkf45_backend_reports_evaluations(self, small_network):
        backend = ReferenceBackend("RKF45")
        sim = Simulator(small_network, backend, dt=DT, seed=3)
        result = sim.run(20)
        assert result.evaluations_per_step["exc"] >= 6.0

    def test_euler_backend_reports_one_evaluation(self, small_network):
        backend = ReferenceBackend("Euler")
        sim = Simulator(small_network, backend, dt=DT, seed=3)
        result = sim.run(20)
        assert result.evaluations_per_step["exc"] == 1.0
