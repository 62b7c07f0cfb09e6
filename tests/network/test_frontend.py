"""Tests for the declarative front-end (Section VII-B)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.frontend import (
    build_backend,
    build_network,
    build_simulation,
    load_spec,
)
from repro.workloads import spec_for


class TestBuildNetwork:
    def test_registry_spec_builds_and_runs(self):
        simulator, network = build_simulation(spec_for("Brunel", 0.02, 7))
        assert network.n_neurons == 100
        result = simulator.run(300)
        assert result.total_spikes() > 0

    def test_stimulus_seed_defaults_to_seed(self):
        spec = spec_for("Brunel", 0.02, 7)
        assert spec["stimulus_seed"] == 8
        assert build_simulation(spec)[0].stimulus_plan.seed == 8
        del spec["stimulus_seed"]
        assert build_simulation(spec)[0].stimulus_plan.seed == 7

    def test_the_network_keeps_its_spec_as_json(self):
        # What a checkpoint header holds and ``restore`` compares.
        import numpy as np

        from repro.network.network import Network

        expected = json.loads(json.dumps(spec_for("Brunel", 0.02, 7)))
        spec = {**spec_for("Brunel", 0.02, 7), "seed": np.int64(7)}
        network = build_network(spec)
        assert network.spec == expected
        spec["stimulus_seed"] = 9  # the caller's dict is not the network's
        assert network.spec == expected
        assert Network("hand-built").spec is None

    def test_negative_stimulus_seed_rejected(self):
        spec = {**spec_for("Brunel", 0.02, 7), "stimulus_seed": -1}
        with pytest.raises(ConfigurationError, match="'stimulus_seed'"):
            build_simulation(spec)

    @pytest.mark.parametrize(
        "model, overrides, expected",
        [
            ("LIF", {"tau": 0.05}, {"tau": 0.05}),
            # Overrides keep the named model's own defaults.
            ("LLIF", {"t_ref": 0.01}, {"t_ref": 0.01, "leak_rate": 20.0}),
            ("AdEx", {"tau": 0.03},
             {"tau": 0.03, "a": -0.02, "b": 0.08, "tau_w": 0.144,
              "v_w": 0.0}),
        ],
        ids=["LIF", "LLIF", "AdEx"],
    )
    def test_population_parameters_applied(self, model, overrides, expected):
        spec = {
            "populations": [
                {"name": "p", "n": 5, "model": model,
                 "parameters": overrides},
            ],
        }
        network = build_network(spec)
        parameters = network.populations["p"].model.parameters
        for field, value in expected.items():
            assert getattr(parameters, field) == value

    def test_tuple_parameters_coerced(self):
        spec = {
            "populations": [
                {"name": "p", "n": 5, "model": "DLIF",
                 "parameters": {"tau_g": [0.005, 0.01], "v_g": [4.0, -1.0]}},
            ],
        }
        network = build_network(spec)
        assert network.populations["p"].model.parameters.v_g == (4.0, -1.0)

    def test_pattern_stimulus(self):
        spec = {
            "populations": [{"name": "p", "n": 4, "model": "LIF"}],
            "stimuli": [
                {"kind": "pattern", "target": "p", "weight": 1.0,
                 "events": {"0": [1, 2]}, "period": 10},
            ],
        }
        network = build_network(spec)
        assert len(network.stimuli) == 1

    def test_plastic_projection(self):
        spec = {
            "populations": [
                {"name": "a", "n": 4, "model": "LIF"},
                {"name": "b", "n": 2, "model": "LIF"},
            ],
            "projections": [
                {"pre": "a", "post": "b", "probability": 1.0,
                 "weight": 1.0,
                 "plasticity": {"rule": "pair_stdp", "a_plus": 0.05}},
            ],
        }
        network = build_network(spec)
        assert len(network.plasticity_rules) == 1
        assert network.plasticity_rules[0].a_plus == 0.05

    def test_unknown_top_level_key_rejected(self):
        spec = spec_for("Brunel", 0.02)
        spec["populatoins"] = []  # typo
        with pytest.raises(ConfigurationError, match="populatoins"):
            build_network(spec)

    def test_unknown_population_key_rejected(self):
        spec = {
            "populations": [
                {"name": "p", "n": 4, "model": "LIF", "size": 4},
            ],
        }
        with pytest.raises(ConfigurationError, match="size"):
            build_network(spec)

    def test_missing_required_field_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            build_network({"populations": [{"name": "p", "n": 4}]})

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            build_network({})

    def test_unknown_stimulus_kind_rejected(self):
        spec = {
            "populations": [{"name": "p", "n": 4, "model": "LIF"}],
            "stimuli": [{"kind": "laser", "target": "p"}],
        }
        with pytest.raises(ConfigurationError, match="laser"):
            build_network(spec)

    def test_stimulus_unknown_target_rejected(self):
        spec = {
            "populations": [{"name": "p", "n": 4, "model": "LIF"}],
            "stimuli": [
                {"kind": "poisson", "target": "ghost", "rate_hz": 1,
                 "weight": 1},
            ],
        }
        with pytest.raises(ConfigurationError, match="unknown target"):
            build_network(spec)

    def test_unknown_plasticity_rule_rejected(self):
        spec = {
            "populations": [{"name": "p", "n": 4, "model": "LIF"}],
            "projections": [
                {"pre": "p", "post": "p", "probability": 1.0,
                 "plasticity": {"rule": "triplet_stdp"}},
            ],
        }
        with pytest.raises(ConfigurationError, match="triplet_stdp"):
            build_network(spec)


class TestBackends:
    @pytest.mark.parametrize(
        "name, type_name",
        [
            ("reference", "ReferenceBackend"),
            ("flexon", "FlexonBackend"),
            ("folded", "FoldedFlexonBackend"),
            ("hybrid", "HybridBackend"),
        ],
    )
    def test_backend_selection(self, name, type_name):
        backend = build_backend({"backend": name})
        assert type(backend).__name__ == type_name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            build_backend({"backend": "fpga"})

    def test_default_is_reference(self):
        assert type(build_backend({})).__name__ == "ReferenceBackend"


class TestLoadSpec:
    def test_round_trip_via_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(spec_for("Vogels-Abbott", 0.02)))
        spec = load_spec(path)
        simulator, network = build_simulation(spec)
        assert network.name == "Vogels-Abbott"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_spec(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_spec(path)
