"""Tests for ModelParameters and the NeuronModel base plumbing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import ModelParameters, create_model, available_models
from repro.models.registry import canonical_name


class TestModelParameters:
    def test_defaults_are_shift_and_scaled(self):
        p = ModelParameters()
        assert p.v_rest == 0.0
        assert p.theta == 1.0

    def test_eps_m(self):
        p = ModelParameters(tau=20e-3)
        assert p.eps_m(1e-4) == pytest.approx(0.005)

    def test_eps_g_per_type(self):
        p = ModelParameters(tau_g=(5e-3, 10e-3))
        assert p.eps_g(1e-4) == pytest.approx((0.02, 0.01))

    def test_refractory_steps(self):
        p = ModelParameters(t_ref=2e-3)
        assert p.refractory_steps(1e-4) == 20
        assert p.refractory_steps(1e-3) == 2

    def test_refractory_steps_at_least_one(self):
        p = ModelParameters(t_ref=1e-6)
        assert p.refractory_steps(1e-3) == 1

    def test_reset_voltage_defaults_to_rest(self):
        assert ModelParameters().reset_voltage == 0.0
        assert ModelParameters(v_reset=0.1).reset_voltage == 0.1

    def test_with_overrides(self):
        p = ModelParameters().with_overrides(tau=10e-3)
        assert p.tau == 10e-3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", 0.0),
            ("tau", -1e-3),
            ("tau_w", 0.0),
            ("tau_r", 0.0),
            ("delta_t", 0.0),
            ("tau_g", (0.0, 10e-3)),
            ("tau_g", (5e-3, -1e-3)),
            ("t_ref", -1e-3),
            ("leak_rate", -5.0),
            ("tau", float("nan")),
            ("tau", float("inf")),
            ("theta", float("nan")),
            ("v_reset", float("inf")),
            ("tau_g", (float("nan"), 10e-3)),
            ("v_g", (4.33, float("-inf"))),
        ],
        ids=lambda value: str(value).replace(" ", ""),
    )
    def test_rejects_nonpositive_tau(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ModelParameters(**{field: value})

    def test_zero_refractory_and_leak_are_allowed(self):
        p = ModelParameters(t_ref=0.0, leak_rate=0.0)
        assert p.refractory_steps(1e-4) == 1

    def test_rejects_too_few_synapse_time_constants(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(n_synapse_types=3, tau_g=(5e-3, 5e-3))

    def test_rejects_too_few_reversal_voltages(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(n_synapse_types=3, v_g=(1.0, 1.0))

    def test_rejects_theta_below_rest(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(theta=-1.0)

    def test_rejects_zero_synapse_types(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(n_synapse_types=0)


class TestBaseModel:
    def test_initial_state_at_rest(self):
        model = create_model("LIF")
        state = model.initial_state(7)
        np.testing.assert_array_equal(state["v"], np.zeros(7))

    def test_initial_state_respects_custom_rest(self):
        model = create_model("LIF", ModelParameters(v_rest=0.1, theta=1.0))
        assert np.all(model.initial_state(3)["v"] == 0.1)


class TestRegistry:
    def test_all_table_models_registered(self):
        names = available_models()
        for expected in (
            "LIF", "LLIF", "SLIF", "DSRM0", "DLIF", "QIF", "EIF",
            "Izhikevich", "AdEx", "AdEx_COBA", "IF_psc_alpha",
            "IF_cond_exp_gsfa_grr", "HH", "NativeIzhikevich",
        ):
            assert expected in names

    def test_aliases_resolve(self):
        assert canonical_name("lif") == "LIF"
        assert canonical_name("adex_coba") == "AdEx_COBA"
        assert canonical_name("hodgkin-huxley") == "HH"

    def test_create_by_alias(self):
        assert create_model("izhikevich").name == "Izhikevich"

    def test_unknown_name_raises(self):
        from repro.errors import UnknownModelError

        with pytest.raises(UnknownModelError):
            create_model("nonexistent-model")

    def test_create_with_custom_parameters(self):
        p = ModelParameters(tau=5e-3)
        assert create_model("LIF", parameters=p).parameters.tau == 5e-3
