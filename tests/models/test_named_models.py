"""Tests for the named reference models (Table III + HH + native Izh)."""

import numpy as np
import pytest

from repro.features import MODEL_FEATURES
from repro.models import (
    HodgkinHuxley,
    ModelParameters,
    NativeIzhikevich,
    create_model,
)
from repro.models.feature_model import FeatureModel
from tests.conftest import DT, drive_single


class TestCatalogConsistency:
    @pytest.mark.parametrize("name", list(MODEL_FEATURES))
    def test_model_features_match_catalog(self, name):
        model = create_model(name)
        assert isinstance(model, FeatureModel)
        assert model.features == MODEL_FEATURES[name]
        assert model.name == name

    @pytest.mark.parametrize("name", list(MODEL_FEATURES))
    def test_state_variables_match_feature_requirements(self, name):
        model = create_model(name)
        expected = MODEL_FEATURES[name].state_variables(
            model.parameters.n_synapse_types
        )
        assert model.state_variable_names() == expected

    def test_ops_grow_with_feature_count(self):
        def total_ops(name):
            ops = create_model(name).ops_per_update()
            return sum(ops.values())

        assert total_ops("LIF") < total_ops("DLIF") < total_ops("AdEx_COBA")

    def test_hh_is_most_expensive(self):
        hh_ops = sum(HodgkinHuxley().ops_per_update().values())
        for name in MODEL_FEATURES:
            assert hh_ops > sum(create_model(name).ops_per_update().values())


class TestIzhikevichCrossCheck:
    """The feature mapping and the native (v, u) formulation agree
    on qualitative behaviour even though their state spaces differ."""

    def test_both_adapt_under_sustained_input(self):
        feature_based = create_model("Izhikevich")
        _, _, feature_spikes = drive_single(feature_based, 2.0, 8000)

        native = NativeIzhikevich()  # regular spiking defaults
        state = native.initial_state(1)
        inputs = np.zeros((2, 1))
        inputs[0, 0] = 10.0
        native_spikes = [
            step
            for step in range(8000)
            if native.step(state, inputs.copy(), DT)[0]
        ]
        for spikes in (feature_spikes, native_spikes):
            assert len(spikes) >= 3
            intervals = np.diff(spikes)
            assert intervals[-1] >= intervals[0]

    def test_native_regimes_differ(self):
        def count(kwargs):
            model = NativeIzhikevich(**kwargs)
            state = model.initial_state(1)
            inputs = np.zeros((2, 1))
            inputs[0, 0] = 10.0
            return sum(
                int(model.step(state, inputs.copy(), DT)[0])
                for _ in range(10000)
            )

        regular = count({})  # a=0.02, d=8: regular spiking
        fast = count({"a": 0.1, "b": 0.2, "c": -65.0, "d": 2.0})  # FS
        assert fast > regular

    def test_native_resets_to_c(self):
        model = NativeIzhikevich(c=-60.0)
        state = model.initial_state(1)
        state["v"][:] = 29.9
        inputs = np.zeros((2, 1))
        inputs[0, 0] = 20.0
        fired = model.step(state, inputs, DT)
        assert fired[0]
        assert state["v"][0] == -60.0


class TestHodgkinHuxley:
    def test_action_potentials_under_current_step(self):
        model = HodgkinHuxley()
        state = model.initial_state(1)
        inputs = np.zeros((2, 1))
        inputs[0, 0] = 10.0
        spikes = sum(
            int(model.step(state, inputs.copy(), DT)[0]) for _ in range(2000)
        )
        # ~68 Hz tonic firing for 10 uA/cm^2 over 200 ms.
        assert 5 <= spikes <= 30

    def test_gates_stay_in_unit_interval(self):
        model = HodgkinHuxley()
        state = model.initial_state(2)
        inputs = np.full((2, 2), 15.0)
        for _ in range(500):
            model.step(state, inputs, DT)
            for gate in ("m", "h", "n"):
                assert np.all((0.0 <= state[gate]) & (state[gate] <= 1.0))

    def test_silent_without_input(self):
        model = HodgkinHuxley()
        state = model.initial_state(1)
        zeros = np.zeros((2, 1))
        spikes = sum(
            int(model.step(state, zeros.copy(), DT)[0]) for _ in range(1000)
        )
        assert spikes == 0

    def test_rest_is_stable(self):
        model = HodgkinHuxley()
        state = model.initial_state(1)
        zeros = np.zeros((2, 1))
        for _ in range(1000):
            model.step(state, zeros.copy(), DT)
        assert state["v"][0] == pytest.approx(-65.0, abs=1.5)

    def test_internal_substepping_keeps_coarse_dt_stable(self):
        # At the simulator's 0.1 ms step HH would diverge without the
        # internal substepping; assert it stays finite under drive.
        model = HodgkinHuxley()
        state = model.initial_state(4)
        inputs = np.full((2, 4), 30.0)
        for _ in range(3000):
            model.step(state, inputs, DT)
        assert np.all(np.isfinite(state["v"]))


class TestLinearVsExponentialDecay:
    def test_llif_outlives_lif_near_rest(self):
        # Exponential decay slows near rest; linear decay keeps its
        # rate and reaches rest sooner from a low start...
        def settle_steps(model, v0):
            state = model.initial_state(1)
            state["v"][:] = v0
            zeros = np.zeros((2, 1))
            for step in range(20000):
                model.step(state, zeros.copy(), DT)
                if abs(state["v"][0]) < 1e-3:
                    return step
            return 20000

        lif = create_model("LIF", ModelParameters(tau=20e-3))
        llif = create_model("LLIF", ModelParameters(leak_rate=10.0))
        assert settle_steps(llif, 0.5) < settle_steps(lif, 0.5)

    def test_llif_needs_no_multiplication(self):
        # The reason TrueNorth adopts LLIF (Section III-A): mul-free.
        from repro.features import features_for_model
        from repro.hardware.constants import prepare_constants
        from repro.hardware.microcode import assemble
        from repro.hardware.control import AOperand

        features = features_for_model("LLIF")
        constants = prepare_constants(ModelParameters(), features, DT)
        program = assemble(features, constants)
        # Every LLIF multiply is by the trivial constants 0 or 1.
        trivial = {0, constants.one}
        for signal in program.signals:
            assert signal.a is AOperand.CONSTANT
            assert program.mul_constants[signal.ca] in trivial
