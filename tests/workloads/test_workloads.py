"""Tests for the ten Table I workloads."""

import numpy as np
import pytest

from repro.errors import UnknownModelError
from repro.network import ReferenceBackend, Simulator
from repro.workloads import (
    WORKLOADS,
    build_workload,
    get_spec,
    spec_for,
)
from repro.workloads.spec import WorkloadSpec, scaled_probability

DT = 1e-4

#: Table I ground truth: (neurons, synapses, model, solver, framework).
TABLE1 = {
    "Brette et al.": (2_400, 2_400_000, "DLIF", "RKF45", "NEST"),
    "Brunel": (5_000, 2_500_000, "IF_psc_alpha", "Euler", "NEST"),
    "Destexhe-LTS": (500, 20_000, "AdEx", "RKF45", "NEST"),
    "Destexhe-UpDown": (2_500, 100_000, "AdEx", "RKF45", "NEST"),
    "Izhikevich": (10_000, 10_000_000, "Izhikevich", "Euler", "GeNN"),
    "Muller et al.": (1_728, 762_000, "IF_cond_exp_gsfa_grr", "RKF45", "NEST"),
    "Nowotny et al.": (1_220, 202_000, "Izhikevich", "Euler", "GeNN"),
    "Potjans-Diesmann": (8_000, 3_000_000, "DSRM0", "Euler", "NEST"),
    "Vogels et al.": (10_000, 1_920_000, "DLIF", "RKF45", "NEST"),
    "Vogels-Abbott": (4_000, 320_000, "DLIF", "RKF45", "NEST"),
}


class TestSpecs:
    def test_exactly_ten_workloads(self):
        assert len(WORKLOADS) == 10

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_table1_rows(self, name):
        spec = get_spec(name)
        neurons, synapses, model, solver, framework = TABLE1[name]
        assert spec.paper_neurons == neurons
        assert spec.paper_synapses == synapses
        assert spec.model_name == model
        assert spec.solver == solver
        assert spec.framework == framework

    def test_destexhe_uses_three_synapse_types(self):
        for name in ("Destexhe-LTS", "Destexhe-UpDown"):
            for population in spec_for(name, 0.05)["populations"]:
                assert population["parameters"]["n_synapse_types"] == 3

    def test_scaled_counts(self):
        spec = get_spec("Brunel")
        assert spec.scaled_neurons(1.0) == 5_000
        assert spec.scaled_neurons(0.1) == 500
        # Synapses scale quadratically so probability stays constant.
        assert spec.scaled_synapses(0.1) == pytest.approx(25_000, rel=0.01)

    def test_fan_in_grows_linearly_with_scale(self):
        # Constant p is all scaled_synapses keeps: doubling the scale
        # doubles every neuron's fan-in (Brunel's p = 0.1 is above the
        # small-network floor at these sizes).
        spec = get_spec("Brunel")
        for scale in (0.2, 0.4, 0.8):
            fan_in = spec.scaled_synapses(scale) / spec.scaled_neurons(scale)
            assert fan_in == pytest.approx(spec.fan_in() * scale)
        small, large = (
            build_workload("Brunel", scale=scale, seed=1)
            for scale in (0.2, 0.4)
        )
        assert small.n_synapses / small.n_neurons == pytest.approx(100, rel=0.02)
        assert large.n_synapses / large.n_neurons == pytest.approx(200, rel=0.02)

    def test_scale_floor(self):
        spec = get_spec("Destexhe-LTS")
        assert spec.scaled_neurons(1e-6) >= 20

    def test_connection_probability(self):
        spec = get_spec("Izhikevich")
        assert spec.connection_probability() == pytest.approx(0.1)

    def test_fan_in(self):
        assert get_spec("Izhikevich").fan_in() == pytest.approx(1000.0)

    def test_scaled_probability_floored_for_tiny_networks(self):
        spec = get_spec("Destexhe-LTS")
        assert scaled_probability(spec, 0.01) > spec.connection_probability()

    def test_unknown_workload_raises(self):
        with pytest.raises(UnknownModelError):
            get_spec("nope")
        with pytest.raises(UnknownModelError):
            build_workload("nope")

    def test_spec_validation(self):
        with pytest.raises(Exception):
            WorkloadSpec("x", 0, 1, "LIF", "Euler", "NEST")
        with pytest.raises(Exception):
            WorkloadSpec("x", 1, 1, "LIF", "RK4", "NEST")
        with pytest.raises(Exception):
            WorkloadSpec("x", 1, 1, "LIF", "Euler", "CUDA")


class TestBuilders:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_builds_at_small_scale(self, name):
        network = build_workload(name, scale=0.04, seed=1)
        spec = get_spec(name)
        assert network.n_neurons >= 20
        assert network.n_synapses > 0
        assert network.stimuli, "every workload needs external drive"
        model = next(iter(network.populations.values())).model
        assert model.name == spec.model_name

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_fires_at_biological_rates(self, name):
        network = build_workload(name, scale=0.05, seed=1)
        simulator = Simulator(
            network, ReferenceBackend("Euler"), dt=DT, seed=2
        )
        result = simulator.run(1000)
        rate = result.total_spikes() / network.n_neurons / (1000 * DT)
        assert 0.5 <= rate <= 200.0, f"{name} fires at {rate:.1f} Hz"

    def test_build_is_deterministic(self):
        a = build_workload("Brunel", scale=0.02, seed=7)
        b = build_workload("Brunel", scale=0.02, seed=7)
        assert a.n_synapses == b.n_synapses

    def test_seed_changes_topology(self):
        a = build_workload("Brunel", scale=0.02, seed=7)
        b = build_workload("Brunel", scale=0.02, seed=8)
        assert (
            a.projections[0].post_idx.tolist()
            != b.projections[0].post_idx.tolist()
        )

    def test_scaling_grows_network(self):
        small = build_workload("Vogels-Abbott", scale=0.02, seed=0)
        large = build_workload("Vogels-Abbott", scale=0.06, seed=0)
        assert large.n_neurons > small.n_neurons
        assert large.n_synapses > small.n_synapses

    def test_potjans_has_eight_layers(self):
        network = build_workload("Potjans-Diesmann", scale=0.1, seed=0)
        assert len(network.populations) == 8
        assert set(network.populations) == {
            "L23e", "L23i", "L4e", "L4i", "L5e", "L5i", "L6e", "L6i",
        }

    def test_nowotny_has_olfactory_structure(self):
        network = build_workload("Nowotny et al.", scale=0.1, seed=0)
        assert set(network.populations) == {"pn", "kc", "ln"}
        # Kenyon cells outnumber projection neurons.
        assert network.populations["kc"].n > network.populations["pn"].n

    def test_destexhe_models_carry_three_synapse_types(self):
        network = build_workload("Destexhe-LTS", scale=0.1, seed=0)
        model = next(iter(network.populations.values())).model
        assert model.parameters.n_synapse_types == 3

    def test_inhibitory_weights_negative_for_non_rev_models(self):
        # DSRM0 (Potjans) has no reversal voltages: inhibition must use
        # negative weights.
        network = build_workload("Potjans-Diesmann", scale=0.1, seed=0)
        inhibitory = [
            p for p in network.projections if p.pre.name.endswith("i")
        ]
        assert inhibitory
        for projection in inhibitory:
            assert np.all(projection.weights <= 0.0)

    def test_inhibitory_weights_positive_for_rev_models(self):
        # DLIF inhibition works through the reversal voltage, so the
        # conductance weights themselves are positive.
        network = build_workload("Vogels-Abbott", scale=0.05, seed=0)
        inh = [p for p in network.projections if p.syn_type == 1]
        assert inh
        for projection in inh:
            assert np.all(projection.weights >= 0.0)
