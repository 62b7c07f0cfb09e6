"""Failure-injection tests: hardware limits fail loudly, not silently."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.features import features_for_model
from repro.fixedpoint import (
    FLEXON_FORMAT,
    SaturationStats,
    fx_from_float,
    observe_saturation,
)
from repro.hardware.backend import FlexonBackend
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.flexon import FlexonNeuron
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.constants import prepare_constants
from repro.models import ModelParameters
from repro.models.registry import create_model
from repro.network.simulator import Simulator
from repro.workloads import build_workload, workload_names

DT = 1e-4


class TestSynapseTypeLimit:
    def test_four_types_supported(self):
        params = ModelParameters(
            n_synapse_types=4,
            tau_g=(5e-3,) * 4,
            v_g=(4.33, 4.33, -1.0, -1.0),
        )
        constants = prepare_constants(params, features_for_model("DLIF"), DT)
        assert constants.n_synapse_types == 4

    def test_five_types_rejected_with_table4_reason(self):
        params = ModelParameters(
            n_synapse_types=5,
            tau_g=(5e-3,) * 5,
            v_g=(1.0,) * 5,
        )
        with pytest.raises(ConfigurationError, match="2 bits"):
            prepare_constants(params, features_for_model("DLIF"), DT)

    def test_four_type_model_runs_bit_exact(self):
        params = ModelParameters(
            n_synapse_types=4,
            tau_g=(5e-3, 10e-3, 8e-3, 6e-3),
            v_g=(4.33, 4.33, -1.0, -1.0),
        )
        from repro.models.feature_model import FeatureModel

        model = FeatureModel(features_for_model("DLIF"), params)
        compiled = FlexonCompiler().compile(model, DT)
        flexon = compiled.instantiate_flexon(8)
        folded = compiled.instantiate_folded(8)
        rng = np.random.default_rng(1)
        for _ in range(150):
            weights = (rng.random((4, 8)) < 0.1) * 1.0
            raw = fx_from_float(
                weights * compiled.weight_scale, FLEXON_FORMAT
            )
            assert np.array_equal(
                flexon.step(raw.copy()), folded.step(raw.copy())
            )


class TestShapeErrors:
    def test_flexon_rejects_wrong_input_shape(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        neuron = compiled.instantiate_flexon(4)
        with pytest.raises(SimulationError):
            neuron.step(np.zeros((3, 4), dtype=np.int64))
        with pytest.raises(SimulationError):
            neuron.step(np.zeros((2, 5), dtype=np.int64))

    def test_folded_rejects_wrong_input_shape(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        neuron = compiled.instantiate_folded(4)
        with pytest.raises(SimulationError):
            neuron.step(np.zeros((2, 3), dtype=np.int64))


def test_arrays_refuse_to_store_an_untruncated_membrane():
    compiled = FlexonCompiler().compile(create_model("LIF"), DT)
    with pytest.raises(ConfigurationError, match="membrane_format"):
        FlexonNeuron(compiled.features, compiled.constants, 4, None)
    with pytest.raises(ConfigurationError, match="membrane_format"):
        FoldedFlexonNeuron(compiled.program, 4, membrane_format=None)


class TestSaturationBehaviour:
    def test_oversized_weights_saturate_not_wrap(self):
        # A pathological weight saturates the 32-bit format and the
        # neuron fires; nothing wraps to negative.
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        neuron = compiled.instantiate_flexon(1)
        huge = fx_from_float(
            np.full((2, 1), 1e12) * compiled.weight_scale, FLEXON_FORMAT
        )
        assert huge[0, 0] == FLEXON_FORMAT.raw_max
        fired = neuron.step(huge)
        assert fired[0]
        assert neuron.state["v"][0] == compiled.constants.v_reset

    def test_constants_outside_the_format_are_refused(self):
        # 1 / delta_T = 1000 would saturate to 511.99... in Q9.22, and
        # -theta / delta_T with it: the model would silently change.
        model = create_model("EIF", ModelParameters(delta_t=0.001))
        with pytest.raises(ConfigurationError) as refused:
            FlexonCompiler().compile(model, DT)
        message = str(refused.value)
        assert "inv_delta_t = 1000" in message
        assert "neg_theta_inv_delta_t = -1000" in message
        assert FLEXON_FORMAT.describe() in message

    def test_a_constant_the_model_never_reads_may_saturate(self):
        # At dt = 1 s COBA's e * eps_g leaves the format, but LIF (CUB)
        # never reads it.
        compiled = FlexonCompiler().compile(create_model("LIF"), 1.0)
        assert compiled.constants.e_eps_g[0] == FLEXON_FORMAT.raw_max

    def test_membrane_clamp_engages_under_extreme_inhibition(self):
        # Inject absurd inhibitory conductance: the truncated membrane
        # store clamps at its rail instead of wrapping.
        compiled = FlexonCompiler().compile(create_model("DLIF"), DT)
        neuron = compiled.instantiate_flexon(1)
        weights = np.zeros((2, 1))
        weights[1, 0] = 500.0  # inhibitory (reversal -1.0)
        raw = fx_from_float(weights * compiled.weight_scale, FLEXON_FORMAT)
        for _ in range(50):
            neuron.step(raw.copy())
        v = neuron.state["v"][0]
        membrane = compiled.membrane_format
        assert membrane.raw_min <= v <= membrane.raw_max

    def test_reference_model_rejects_bad_input_shapes(self):
        model = create_model("LIF")
        state = model.initial_state(4)
        with pytest.raises(SimulationError):
            model.step(state, np.zeros((1, 4)), DT)
        with pytest.raises(SimulationError):
            model.step(state, np.zeros((2, 3)), DT)


#: Workloads whose dynamics transiently exceed the Q9.22 datapath range
#: at this scale — a real (rare, ~1e-4 rate) clip the accounting layer
#: made visible; every other Table I workload runs clip-free.
_KNOWN_SATURATING = {"Destexhe-LTS", "Destexhe-UpDown"}


def _saturation_after(workload, steps=100, scale=0.02, seed=7):
    network = build_workload(workload, scale=scale, seed=seed)
    simulator = Simulator(network, FlexonBackend(DT), dt=DT, seed=seed + 1)
    return simulator.run(steps).diagnostics


class TestSaturationAccounting:
    """The paper's formats hold registry workloads without clipping."""

    @pytest.mark.parametrize(
        "workload",
        [n for n in workload_names() if n not in _KNOWN_SATURATING],
    )
    def test_paper_formats_never_clip_on_workload(self, workload):
        diagnostics = _saturation_after(workload)
        assert diagnostics.total_saturations == 0, (
            f"{workload} clipped: "
            + "; ".join(
                f"{pop}: {stats.describe()}"
                for pop, stats in diagnostics.saturation.items()
                if stats.total_clipped
            )
        )
        # The zero is meaningful: millions of values were screened.
        assert all(
            stats.checked > 0
            for stats in diagnostics.saturation.values()
        )

    @pytest.mark.parametrize("workload", sorted(_KNOWN_SATURATING))
    def test_destexhe_transients_are_counted_not_silent(self, workload):
        # Before the accounting layer these clips were invisible; now
        # they are quantified (and rare) instead of silently absorbed.
        diagnostics = _saturation_after(workload, steps=150)
        clipped = diagnostics.total_saturations
        checked = sum(s.checked for s in diagnostics.saturation.values())
        assert 0 < clipped < checked * 1e-3
        assert any(
            fmt.frac_bits == FLEXON_FORMAT.frac_bits
            and fmt.total_bits == FLEXON_FORMAT.total_bits
            for stats in diagnostics.saturation.values()
            for fmt in stats.clipped
        )

    def test_stats_sink_counts_array_clips(self):
        stats = SaturationStats()
        with observe_saturation(stats):
            fx_from_float(np.array([0.5, 1e9, -1e9]), FLEXON_FORMAT)
        assert stats.total_clipped == 2
        assert stats.checked == 3

    def test_no_active_sink_costs_nothing_and_counts_nothing(self):
        stats = SaturationStats()
        fx_from_float(np.array([1e9]), FLEXON_FORMAT)  # outside any sink
        assert stats.total_clipped == 0 and stats.checked == 0

    def test_sinks_nest_and_restore(self):
        outer, inner = SaturationStats(), SaturationStats()
        with observe_saturation(outer):
            fx_from_float(1e9, FLEXON_FORMAT)
            with observe_saturation(inner):
                fx_from_float(1e9, FLEXON_FORMAT)
            fx_from_float(1e9, FLEXON_FORMAT)
        assert outer.total_clipped == 2
        assert inner.total_clipped == 1

    def test_merge_accumulates_across_stats(self):
        a, b = SaturationStats(), SaturationStats()
        with observe_saturation(a):
            fx_from_float(1e9, FLEXON_FORMAT)
        with observe_saturation(b):
            fx_from_float(np.array([1e9, -1e9]), FLEXON_FORMAT)
        a.merge(b)
        assert a.total_clipped == 3
        assert a.checked == 3

    def test_flexon_and_folded_clip_the_same_values(self):
        # Inhibition pushes some Izhikevich membranes onto the -2 rail
        # of the Q1.22 store. Each design counts those clips its own
        # way (baseline scans the write-back, folded proves or scans
        # it), and the counts must agree.
        from repro.frontend import build_simulation
        from repro.workloads import spec_for

        clipped = {}
        for backend in ("flexon", "folded"):
            simulator, _ = build_simulation(
                {**spec_for("Izhikevich", 0.03, 5), "backend": backend}
            )
            saturation = simulator.run(200).diagnostics.saturation
            clipped[backend] = {
                population: {fmt.describe(): n for fmt, n in stats.clipped.items()}
                for population, stats in saturation.items()
            }
        assert clipped["flexon"] == clipped["folded"]
        assert clipped["flexon"]["exc"] == {"Q1.22": 1345}
