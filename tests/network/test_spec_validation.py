"""Tests: malformed specs fail with field-level ReproError messages.

A typo'd or structurally wrong spec must never surface as a raw
``KeyError``/``TypeError`` from deep inside a builder — every failure
here asserts both the exception type (:class:`ConfigurationError`, a
:class:`ReproError`) and that the message names the offending field.
"""

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.frontend import build_network, build_simulation, load_spec
from repro.workloads import (
    WorkloadSpec,
    build_workload,
    spec_for,
    validate_scale,
)


def _spec(**overrides):
    spec = spec_for("Brunel", scale=0.02)
    spec.update(overrides)
    return spec


class TestTopLevel:
    def test_non_dict_spec(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            build_network(["not", "a", "spec"])

    def test_non_numeric_seed(self):
        with pytest.raises(ConfigurationError, match="'seed'"):
            build_network(_spec(seed="tomorrow"))

    def test_non_numeric_dt(self):
        with pytest.raises(ConfigurationError, match="'dt'"):
            build_network(_spec(dt=[1e-4]))

    def test_negative_dt(self):
        with pytest.raises(ConfigurationError, match="'dt'"):
            build_network(_spec(dt=-1e-4))

    def test_populations_must_be_a_list(self):
        with pytest.raises(ConfigurationError, match="'populations'"):
            build_network(_spec(populations={"exc": 10}))

    def test_population_entries_must_be_objects(self):
        with pytest.raises(ConfigurationError, match=r"populations\[0\]"):
            build_network(_spec(populations=["exc"]))

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec(tmp_path / "nope.json")

    def test_build_simulation_validates_seed(self):
        with pytest.raises(ConfigurationError, match="'seed'"):
            build_simulation(_spec(seed=None))


class TestPopulations:
    def test_non_integer_n(self):
        spec = _spec()
        spec["populations"][0]["n"] = "eighty"
        with pytest.raises(ConfigurationError, match="'n'"):
            build_network(spec)

    def test_zero_n(self):
        spec = _spec()
        spec["populations"][0]["n"] = 0
        with pytest.raises(ConfigurationError, match="'n'"):
            build_network(spec)

    def test_missing_required_key(self):
        spec = _spec()
        del spec["populations"][0]["model"]
        with pytest.raises(ConfigurationError, match="'model'"):
            build_network(spec)

    def test_parameters_must_be_an_object(self):
        spec = _spec()
        spec["populations"][0]["parameters"] = [0.02]
        with pytest.raises(ConfigurationError, match="'parameters'"):
            build_network(spec)

    def test_unknown_parameter_name(self):
        spec = _spec()
        spec["populations"][0]["parameters"] = {"not_a_param": 1.0}
        with pytest.raises(ConfigurationError, match="model parameters"):
            build_network(spec)

    def test_non_list_conductance_tuple(self):
        spec = _spec()
        spec["populations"][0]["parameters"] = {"tau_g": 0.005}
        with pytest.raises(ConfigurationError, match="'tau_g'"):
            build_network(spec)


class TestProjections:
    def test_non_numeric_probability(self):
        spec = _spec()
        spec["projections"][0]["probability"] = "dense"
        with pytest.raises(ConfigurationError, match="'probability'"):
            build_network(spec)

    def test_non_integer_delay(self):
        spec = _spec()
        spec["projections"][0]["delay_steps"] = 1.5
        # int coercion truncates numerics; only non-numerics fail
        build_network(spec)
        spec["projections"][0]["delay_steps"] = "soon"
        with pytest.raises(ConfigurationError, match="'delay_steps'"):
            build_network(spec)

    def test_plasticity_must_be_an_object(self):
        spec = _spec()
        spec["projections"][0]["plasticity"] = "pair_stdp"
        with pytest.raises(ConfigurationError, match="'plasticity'"):
            build_network(spec)

    def test_unknown_plasticity_parameter(self):
        spec = _spec()
        spec["projections"][0]["plasticity"] = {
            "rule": "pair_stdp",
            "a_minus_plus": 0.01,
        }
        with pytest.raises(ConfigurationError, match="plasticity parameters"):
            build_network(spec)

    @pytest.mark.parametrize(
        "field,value",
        [("a_plus", float("nan")), ("w_min", float("nan")),
         ("tau_plus", float("inf")), ("tau_plus", "x"), ("a_minus", True),
         ("tau_minus", 0), ("w_min", 2.0), ("deferred", "no")],
    )
    def test_bad_plasticity_parameter_names_projection_and_field(
        self, field, value
    ):
        spec = _spec()
        spec["projections"][0]["plasticity"] = {"rule": "pair_stdp", field: value}
        entry = spec["projections"][0]
        where = f"projection {entry['pre']}->{entry['post']}: "
        with pytest.raises(ConfigurationError, match=field) as raised:
            build_network(spec)
        assert str(raised.value).startswith(where)


class TestStimuli:
    def test_missing_required_field(self):
        spec = _spec()
        del spec["stimuli"][0]["rate_hz"]
        with pytest.raises(ConfigurationError, match="'rate_hz'"):
            build_network(spec)

    def test_pattern_events_must_be_a_mapping(self):
        spec = _spec()
        spec["stimuli"] = [
            {"kind": "pattern", "target": "exc", "weight": 1.0,
             "events": [[0, 1]]}
        ]
        with pytest.raises(ConfigurationError, match="'events'"):
            build_network(spec)

    def test_pattern_event_steps_must_be_integers(self):
        spec = _spec()
        spec["stimuli"] = [
            {"kind": "pattern", "target": "exc", "weight": 1.0,
             "events": {"soon": [0, 1]}}
        ]
        with pytest.raises(ConfigurationError, match="event step"):
            build_network(spec)

    def test_pattern_event_indices_must_be_lists(self):
        spec = _spec()
        spec["stimuli"] = [
            {"kind": "pattern", "target": "exc", "weight": 1.0,
             "events": {"0": "all"}}
        ]
        with pytest.raises(ConfigurationError, match="indices"):
            build_network(spec)


class TestWorkloadSpecs:
    def test_valid_spec_builds(self):
        spec = WorkloadSpec(
            name="t", paper_neurons=100, paper_synapses=1000,
            model_name="LIF", solver="Euler", framework="NEST",
        )
        assert spec.scaled_neurons(1.0) == 100

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"name": ""}, "name"),
            ({"paper_neurons": "many"}, "paper_neurons"),
            ({"paper_neurons": -5}, "positive"),
            ({"paper_synapses": 2.5}, "paper_synapses"),
            ({"solver": "Leapfrog"}, "solver"),
            ({"framework": "Brian2"}, "framework"),
        ],
    )
    def test_field_level_errors(self, overrides, field):
        kwargs = dict(
            name="t", paper_neurons=100, paper_synapses=1000,
            model_name="LIF", solver="Euler", framework="NEST",
        )
        kwargs.update(overrides)
        with pytest.raises(ConfigurationError, match=field):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize("bad", ["0.1", None, -0.5, 0, float("nan")])
    def test_validate_scale_rejects_non_positive_non_numbers(self, bad):
        with pytest.raises(ConfigurationError, match="scale"):
            validate_scale(bad)

    def test_build_workload_validates_scale(self):
        with pytest.raises(ReproError, match="scale"):
            build_workload("Brunel", scale="big")
