"""What the models → engine lowering reads: which models lower, and the
per-step constants ``ModelParameters.derived(dt)`` states once for the
float model, the compiled kernel and the fixed-point constants."""

import math

import pytest

from repro.engine import supports_step_plan
from repro.fixedpoint import FLEXON_FORMAT, fx_from_float
from repro.hardware.constants import prepare_constants
from repro.models.registry import available_models, create_model

DT = 1e-4

#: Registry models whose step function is the generic FeatureModel one.
PLANNABLE = [
    name
    for name in available_models()
    if name not in ("HH", "NativeIzhikevich")
]


class TestSupportsStepPlan:
    @pytest.mark.parametrize("name", PLANNABLE)
    def test_feature_models_are_plannable(self, name):
        assert supports_step_plan(create_model(name))

    @pytest.mark.parametrize("name", ["HH", "NativeIzhikevich"])
    def test_custom_step_models_are_not(self, name):
        assert not supports_step_plan(create_model(name))


class TestDerivedConstants:
    def test_cached_per_parameters_and_dt(self):
        p = create_model("LIF").parameters
        assert p.derived(DT) is p.derived(DT)
        assert p.derived(DT) is not p.derived(2 * DT)

    def test_matches_historical_expressions(self):
        p = create_model("AdEx").parameters
        d = p.derived(DT)
        assert d.eps_m == DT / p.tau
        assert d.sbt_gain == (DT / p.tau) * p.a
        for i, tau in enumerate(p.tau_g):
            assert d.eps_g[i] == DT / tau
            assert d.one_minus_eps_g[i] == 1.0 - DT / tau
            assert d.e_eps_g[i] == math.e * (DT / tau)

    @pytest.mark.parametrize("name", PLANNABLE)
    def test_hardware_quantises_derived(self, name):
        """``prepare_constants`` quantises ``derived(dt)``: each word is
        the quantised per-step expression of the model's parameters."""
        model = create_model(name)
        p = model.parameters
        c = prepare_constants(p, model.features, DT)

        def q(value):
            return fx_from_float(value, FLEXON_FORMAT)

        eps_m = DT / p.tau
        taus = p.tau_g[: p.n_synapse_types]
        assert (c.eps_m, c.eps_m_c) == (q(eps_m), q(1.0 - eps_m))
        assert c.v_leak == q(p.leak_rate * DT)
        assert c.eps_g_c == tuple(q(1.0 - DT / t) for t in taus)
        assert c.e_eps_g == tuple(q(math.e * (DT / t)) for t in taus)
        assert c.eps_w_c == q(1.0 - DT / p.tau_w)
        assert c.eps_r_c == q(1.0 - DT / p.tau_r)
        assert c.eps_m_a == q(eps_m * p.a)
        assert c.neg_eps_m_a_v_w == q(-eps_m * p.a * p.v_w)
        assert c.cnt_max == max(1, round(p.t_ref / DT))
        assert c.threshold == q(model.features.threshold(p))
