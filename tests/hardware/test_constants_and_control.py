"""Tests for constant preparation (shift & scale) and control encoding."""

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError, MicrocodeError
from repro.features import MODEL_FEATURES, features_for_model
from repro.fixedpoint import FLEXON_FORMAT, fx_from_float, fx_to_float
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.constants import (
    FEATURE_CONSTANTS,
    NeuronConstants,
    prepare_constants,
)
from repro.hardware.control import (
    AOperand,
    BOperand,
    ControlSignal,
    STATE_G,
    STATE_V,
    STATE_W,
)
from repro.hardware.flexon import FlexonNeuron
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.microcode import assemble
from repro.models import ModelParameters
from repro.models.registry import create_model

DT = 1e-4


def _value(raw):
    return fx_to_float(raw, FLEXON_FORMAT)


class TestPrepareConstants:
    def test_eps_m_complement(self):
        constants = prepare_constants(
            ModelParameters(tau=20e-3), features_for_model("LIF"), DT
        )
        assert _value(constants.eps_m_c) == pytest.approx(0.995, abs=1e-6)
        assert _value(constants.eps_m) == pytest.approx(0.005, abs=1e-6)

    def test_v_leak_scales_with_dt(self):
        p = ModelParameters(leak_rate=20.0)
        fast = prepare_constants(p, features_for_model("LLIF"), 1e-4)
        slow = prepare_constants(p, features_for_model("LLIF"), 1e-3)
        assert _value(slow.v_leak) == pytest.approx(
            10 * _value(fast.v_leak), rel=1e-3
        )

    def test_conductance_constants_per_type(self):
        p = ModelParameters(tau_g=(5e-3, 10e-3))
        constants = prepare_constants(p, features_for_model("DLIF"), DT)
        assert _value(constants.eps_g_c[0]) == pytest.approx(0.98, abs=1e-6)
        assert _value(constants.eps_g_c[1]) == pytest.approx(0.99, abs=1e-6)
        assert _value(constants.e_eps_g[0]) == pytest.approx(
            math.e * 0.02, abs=1e-5
        )

    def test_signs_absorbed_into_stored_constants(self):
        constants = prepare_constants(
            ModelParameters(), features_for_model("AdEx"), DT
        )
        assert constants.neg_theta_inv_delta_t < 0
        assert constants.neg_eps_m_a_v_w * constants.eps_m_a <= 0
        assert constants.neg_eps_m_v_c < 0

    def test_threshold_is_v_theta_for_initiation_models(self):
        qif = prepare_constants(
            ModelParameters(v_theta=2.0), features_for_model("QIF"), DT
        )
        lif = prepare_constants(
            ModelParameters(), features_for_model("LIF"), DT
        )
        assert _value(qif.threshold) == pytest.approx(2.0)
        assert _value(lif.threshold) == pytest.approx(1.0)

    def test_weight_scale_eps_m_for_exd(self):
        constants = prepare_constants(
            ModelParameters(tau=20e-3), features_for_model("LIF"), DT
        )
        assert constants.weight_scale == pytest.approx(0.005)

    def test_weight_scale_unity_for_lid(self):
        constants = prepare_constants(
            ModelParameters(), features_for_model("LLIF"), DT
        )
        assert constants.weight_scale == 1.0

    def test_cnt_max_from_t_ref(self):
        constants = prepare_constants(
            ModelParameters(t_ref=2e-3), features_for_model("SLIF"), DT
        )
        assert constants.cnt_max == 20

    def test_rejects_nonzero_rest(self):
        with pytest.raises(ConfigurationError):
            prepare_constants(
                ModelParameters(v_rest=0.2, theta=1.0),
                features_for_model("LIF"),
                DT,
            )

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            prepare_constants(ModelParameters(), features_for_model("LIF"), 0.0)

    def test_one_and_neg_one(self):
        constants = prepare_constants(
            ModelParameters(), features_for_model("LIF"), DT
        )
        assert _value(constants.one) == 1.0
        assert _value(constants.neg_one) == -1.0


class _Recording(NeuronConstants):
    """Constants that note the name of every field read."""

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dataclass_fields__"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("model", list(MODEL_FEATURES))
def test_feature_constants_are_exactly_what_the_arrays_read(model):
    """``FEATURE_CONSTANTS`` decides which constants may not saturate,
    so it must list every quantised constant a Flexon array reads."""
    compiled = FlexonCompiler().compile(create_model(model), DT)
    constants = compiled.constants
    recording = _Recording(
        **{f.name: getattr(constants, f.name) for f in fields(constants)}
    )
    object.__setattr__(recording, "read", set())
    n_types = constants.n_synapse_types
    inputs = np.full((n_types, 4), fx_from_float(0.5, FLEXON_FORMAT))
    FlexonNeuron(compiled.features, recording, 4).step(inputs)
    FoldedFlexonNeuron(assemble(compiled.features, recording), 4).step(inputs)
    unquantised = {"fmt", "dt", "n_synapse_types", "cnt_max", "weight_scale"}
    expected = {"threshold", "v_reset"}.union(
        *(FEATURE_CONSTANTS.get(feature, ()) for feature in compiled.features)
    )
    assert recording.read - unquantised == expected


class TestControlSignal:
    def test_defaults(self):
        signal = ControlSignal()
        assert signal.a is AOperand.CONSTANT
        assert signal.b is BOperand.ZERO
        assert not signal.exp

    def test_field_ranges_enforced(self):
        with pytest.raises(MicrocodeError):
            ControlSignal(ca=16)
        with pytest.raises(MicrocodeError):
            ControlSignal(cb=8)
        with pytest.raises(MicrocodeError):
            ControlSignal(syn_type=4)
        with pytest.raises(MicrocodeError):
            ControlSignal(s=16)

    def test_describe_mentions_targets(self):
        signal = ControlSignal(
            a=AOperand.CONSTANT, ca=2, b=BOperand.INPUT, syn_type=1,
            s=STATE_G[1], s_wr=True, v_acc=True,
        )
        text = signal.describe()
        assert "g1" in text
        assert "v'" in text
        assert "I[1]" in text

    def test_describe_exp(self):
        signal = ControlSignal(exp=True, s=STATE_V)
        assert "exp(" in signal.describe()

    def test_state_register_layout_distinct(self):
        indices = {STATE_V, STATE_W, *STATE_G.values()}
        assert len(indices) == 2 + len(STATE_G)
