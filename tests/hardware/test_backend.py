"""Tests for the hardware network backends (incl. the hybrid path)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hardware.backend import (
    FlexonBackend,
    FoldedFlexonBackend,
    HybridBackend,
)
from repro.network import Network, PoissonStimulus, ReferenceBackend, Simulator

DT = 1e-4


def _net(model="DLIF", n=30, seed=0, weight=0.06):
    rng = np.random.default_rng(seed)
    net = Network("hw-net")
    pop = net.add_population("pop", n, model)
    net.connect("pop", "pop", probability=0.2, weight=weight, rng=rng)
    net.add_stimulus(
        PoissonStimulus(pop, rate_hz=600.0, weight=0.1, dt=DT, n_sources=10)
    )
    return net


class TestHardwareBackends:
    @pytest.mark.parametrize("backend_cls", [FlexonBackend, FoldedFlexonBackend])
    def test_runs_network_and_spikes(self, backend_cls):
        sim = Simulator(_net(), backend_cls(DT), dt=DT, seed=1)
        result = sim.run(400)
        assert result.total_spikes() > 0

    def test_flexon_and_folded_backends_agree_exactly(self):
        results = []
        for backend in (FlexonBackend(DT), FoldedFlexonBackend(DT)):
            sim = Simulator(_net(seed=3), backend, dt=DT, seed=4)
            result = sim.run(300)
            results.append(result.spikes.result("pop").spike_pairs())
        assert results[0] == results[1]

    def test_tracks_reference_closely(self):
        reference = Simulator(
            _net(seed=5), ReferenceBackend("Euler"), dt=DT, seed=6
        ).run(300)
        hardware = Simulator(
            _net(seed=5), FlexonBackend(DT), dt=DT, seed=6
        ).run(300)
        ref = reference.total_spikes()
        hw = hardware.total_spikes()
        assert abs(ref - hw) <= max(5, 0.1 * max(ref, hw))

    def test_dt_mismatch_rejected(self):
        backend = FlexonBackend(DT)
        backend.prepare(_net())
        with pytest.raises(SimulationError):
            backend.advance("pop", np.zeros((2, 30)), 1e-3)

    def test_unknown_population_rejected(self):
        backend = FlexonBackend(DT)
        backend.prepare(_net())
        with pytest.raises(SimulationError):
            backend.advance("ghost", np.zeros((2, 30)), DT)

    def test_state_of_returns_float_view(self):
        backend = FoldedFlexonBackend(DT)
        backend.prepare(_net())
        state = backend.state_of("pop")
        assert state["v"].dtype == np.float64
        assert "g0" in state

    def test_cycles_per_neuron_reported(self):
        flexon = FlexonBackend(DT)
        folded = FoldedFlexonBackend(DT)
        net = _net()
        flexon.prepare(net)
        folded.prepare(net)
        assert flexon.cycles_per_neuron("pop") == 1
        assert folded.cycles_per_neuron("pop") == 8  # DLIF: 7 signals + 1


class TestHybridBackend:
    """Section VII-A: mixed AdEx + HH networks."""

    def _mixed_net(self, seed=0):
        rng = np.random.default_rng(seed)
        net = Network("mixed")
        adex = net.add_population("adex", 20, "AdEx")
        net.add_population("hh", 5, "HH")
        net.connect("adex", "adex", probability=0.2, weight=0.1, rng=rng)
        net.connect("adex", "hh", probability=0.5, weight=3.0, rng=rng)
        net.add_stimulus(
            PoissonStimulus(adex, 700.0, 0.15, dt=DT, n_sources=10)
        )
        return net

    def test_offloads_supported_populations_only(self):
        backend = HybridBackend(DT)
        backend.prepare(self._mixed_net())
        assert backend.offloaded == {"adex": True, "hh": False}
        assert backend.offloaded_fraction() == pytest.approx(0.8)
        # The array spends cycles on the offloaded population only.
        assert backend.cycles_per_neuron("adex") == (
            backend.runtime("adex").compiled.program.cycles_per_neuron
        )
        assert backend.cycles_per_neuron("hh") == 0

    def test_mixed_network_simulates(self):
        sim = Simulator(self._mixed_net(), HybridBackend(DT), dt=DT, seed=2)
        result = sim.run(400)
        assert result.spikes.result("adex").n_spikes > 0

    def test_hh_population_state_lives_in_software(self):
        backend = HybridBackend(DT)
        backend.prepare(self._mixed_net())
        state = backend.state_of("hh")
        assert "m" in state  # HH gates exist only in the software model

    def test_pure_supported_network_fully_offloaded(self):
        backend = HybridBackend(DT)
        backend.prepare(_net())
        assert backend.offloaded_fraction() == 1.0

    def test_hybrid_matches_folded_for_supported_populations(self):
        hybrid = Simulator(
            _net(seed=7), HybridBackend(DT), dt=DT, seed=8
        ).run(200)
        folded = Simulator(
            _net(seed=7), FoldedFlexonBackend(DT), dt=DT, seed=8
        ).run(200)
        assert (
            hybrid.spikes.result("pop").spike_pairs()
            == folded.spikes.result("pop").spike_pairs()
        )
