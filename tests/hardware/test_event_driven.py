"""Tests for event-driven execution: the skip must be provably exact."""

import numpy as np
import pytest

from repro.fixedpoint import FLEXON_FORMAT, fx_from_float
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.event_driven import (
    EventDrivenRuntime,
    event_driven_power,
    idle_mask,
    supports_event_driven,
)
from repro.models.registry import create_model

DT = 1e-4


@pytest.mark.parametrize("name", ["LLIF", "LIF", "DLIF", "Izhikevich"])
def test_idle_neurons_are_fixed_points(name):
    """The invariant that makes counting a sound energy model:
    stepping an idle neuron changes nothing."""
    model = create_model(name)
    compiled = FlexonCompiler().compile(model, DT)
    neuron = compiled.instantiate_flexon(16)
    rng = np.random.default_rng(3)
    base = 40.0 if name in ("LLIF", "LIF") else 1.5
    assert supports_event_driven(model.features)
    for _ in range(300):
        weights = (rng.random((model.parameters.n_synapse_types, 16)) < 0.05)
        raw = fx_from_float(
            weights * base * compiled.weight_scale, FLEXON_FORMAT
        )
        idle = idle_mask(neuron, raw)
        before = {k: v.copy() for k, v in neuron.state.items()}
        neuron.step(raw)
        for key, values in neuron.state.items():
            np.testing.assert_array_equal(
                values[idle], before[key][idle],
                err_msg=f"{name}: idle neuron changed its {key}",
            )


def test_idle_mask_respects_inputs():
    compiled = FlexonCompiler().compile(create_model("LLIF"), DT)
    neuron = compiled.instantiate_flexon(4)
    raw = np.zeros((2, 4), dtype=np.int64)
    raw[0, 2] = 100
    idle = idle_mask(neuron, raw)
    assert idle.tolist() == [True, True, False, True]


def test_idle_mask_respects_state():
    compiled = FlexonCompiler().compile(create_model("LLIF"), DT)
    neuron = compiled.instantiate_flexon(3)
    neuron.state["v"][1] = 1000
    idle = idle_mask(neuron, np.zeros((2, 3), dtype=np.int64))
    assert idle.tolist() == [True, False, True]


def test_idle_mask_folded_design():
    compiled = FlexonCompiler().compile(create_model("SLIF"), DT)
    neuron = compiled.instantiate_folded(3)
    neuron.cnt[0] = 5  # refractory counter still draining
    idle = idle_mask(neuron, np.zeros((2, 3), dtype=np.int64))
    assert idle.tolist() == [False, True, True]


def test_monitor_tracks_activity_factor():
    compiled = FlexonCompiler().compile(create_model("LLIF"), DT)
    runtime = EventDrivenRuntime("LLIF", 10, compiled, DT, folded=False)
    zeros = np.zeros((2, 10))
    driven = zeros.copy()
    driven[0, :5] = 0.5
    runtime.advance(driven, DT)  # 5 of 10 active
    runtime.advance(zeros, DT)  # the 5 still hold charge: active
    assert (runtime.active_updates, runtime.total_updates) == (10, 20)
    assert runtime.activity_factor == 0.5


def test_quantised_exponential_decay_eventually_goes_idle():
    """Fixed-point EXD really reaches raw zero (unlike float EXD)."""
    compiled = FlexonCompiler().compile(create_model("LIF"), DT)
    neuron = compiled.instantiate_flexon(1)
    neuron.state["v"][:] = fx_from_float(0.5, FLEXON_FORMAT)
    zeros = np.zeros((2, 1), dtype=np.int64)
    for _ in range(60_000):
        neuron.step(zeros)
        if neuron.state["v"][0] == 0:
            break
    assert neuron.state["v"][0] == 0
    assert idle_mask(neuron, zeros)[0]


def test_exi_and_sbt_models_never_claim_idleness():
    # At rest, EXI still drives v by its exponential tail and SBT
    # drives w toward tracking v - v_w: no fixed point at zero.
    for name in ("EIF", "AdEx", "AdEx_COBA"):
        model = create_model(name)
        assert not supports_event_driven(model.features)
        compiled = FlexonCompiler().compile(model, DT)
        neuron = compiled.instantiate_flexon(4)
        zeros = np.zeros((2, 4), dtype=np.int64)
        assert not idle_mask(neuron, zeros).any()


class TestEventDrivenPower:
    def test_full_activity_is_no_saving(self):
        assert event_driven_power(1.0, 0.3, 1.0) == pytest.approx(1.0)

    def test_zero_activity_leaves_static_power(self):
        assert event_driven_power(1.0, 0.3, 0.0) == pytest.approx(0.3)

    def test_scales_linearly_between(self):
        assert event_driven_power(2.0, 0.5, 0.5) == pytest.approx(1.5)
