"""Tests for the array timing models and the Flexon compiler."""

import numpy as np
import pytest

from repro.errors import CompilationError, ConfigurationError
from repro.hardware.array import (
    FLEXON_CLOCK_HZ,
    FlexonArray,
    FoldedFlexonArray,
    NeuronArray,
)
from repro.hardware.compiler import FlexonCompiler, with_background_current
from repro.models import HodgkinHuxley, NativeIzhikevich
from repro.models.registry import create_model

DT = 1e-4


class TestFlexonArray:
    def test_default_configuration_matches_paper(self):
        array = FlexonArray()
        assert array.n_physical == 12
        assert array.clock_hz == 250e6

    def test_single_cycle_per_batch(self):
        array = FlexonArray()
        assert array.step_cycles(12) == 1
        assert array.step_cycles(13) == 2
        assert array.step_cycles(120) == 10

    def test_ignores_microprogram_length(self):
        array = FlexonArray()
        assert array.step_cycles(24, cycles_per_neuron=15) == 2

    def test_latency_includes_fixed_overhead(self):
        array = FlexonArray()
        assert array.step_latency_seconds(12) == pytest.approx(
            1 / FLEXON_CLOCK_HZ + 0.5e-6
        )

    def test_zero_neurons(self):
        assert FlexonArray().step_cycles(0) == 0


class TestFoldedArray:
    def test_default_configuration_matches_paper(self):
        array = FoldedFlexonArray()
        assert array.n_physical == 72
        assert array.clock_hz == 500e6

    def test_throughput_scales_with_signals(self):
        array = FoldedFlexonArray()
        lif = array.step_cycles(72, cycles_per_neuron=1)
        adex = array.step_cycles(72, cycles_per_neuron=11)
        assert adex > lif

    def test_pipeline_drain_cycle(self):
        array = FoldedFlexonArray()
        # one batch of 72 at II=1 -> 1 cycle + 1 drain
        assert array.step_cycles(72, cycles_per_neuron=1) == 2

    def test_folded_faster_than_flexon_for_short_programs(self):
        # DLIF: 7 signals -> folded wins; Destexhe AdEx (15 signals,
        # 3 synapse types) -> baseline Flexon wins. Section VI-C.
        flexon = FlexonArray()
        folded = FoldedFlexonArray()
        n = 7200
        assert folded.step_latency_seconds(
            n, cycles_per_neuron=7
        ) < flexon.step_latency_seconds(n)
        assert folded.step_latency_seconds(
            n, cycles_per_neuron=15
        ) > flexon.step_latency_seconds(n)

    def test_validation_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            NeuronArray(n_physical=0, clock_hz=1e6)
        with pytest.raises(ConfigurationError):
            NeuronArray(n_physical=1, clock_hz=0)
        with pytest.raises(ConfigurationError):
            FlexonArray().step_cycles(-1)


class TestCompiler:
    def test_supports_feature_models_only(self):
        compiler = FlexonCompiler()
        assert compiler.supports(create_model("AdEx"))
        assert not compiler.supports(HodgkinHuxley())
        assert not compiler.supports(NativeIzhikevich())

    def test_unsupported_model_raises_with_guidance(self):
        compiler = FlexonCompiler()
        with pytest.raises(CompilationError, match="--backend hybrid"):
            compiler.compile(HodgkinHuxley(), DT)

    def test_compiled_model_carries_program_and_constants(self):
        compiled = FlexonCompiler().compile(create_model("DLIF"), DT)
        assert compiled.model_name == "DLIF"
        assert compiled.program.n_signals == 7
        assert compiled.program.cycles_per_neuron == 8
        assert compiled.weight_scale == pytest.approx(0.005)

    def test_instantiate_both_designs(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        assert compiled.instantiate_flexon(4).n == 4
        assert compiled.instantiate_folded(4).n == 4


class TestBackgroundCurrent:
    """The Section VII-A workaround."""

    def test_adds_one_signal(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        augmented = with_background_current(compiled, i_bg=50.0)
        assert augmented.program.n_signals == compiled.program.n_signals + 1

    def test_background_current_drives_firing_without_input(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        # 300 current units * eps_m = 1.5 per step: fires immediately.
        augmented = with_background_current(compiled, i_bg=300.0)
        neuron = augmented.instantiate_folded(1)
        zeros = np.zeros((2, 1), dtype=np.int64)
        fired_any = any(neuron.step(zeros.copy())[0] for _ in range(50))
        assert fired_any

    def test_without_background_current_stays_silent(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)
        neuron = compiled.instantiate_folded(1)
        zeros = np.zeros((2, 1), dtype=np.int64)
        assert not any(neuron.step(zeros.copy())[0] for _ in range(50))

    def test_weaker_background_current_fires_slower(self):
        compiled = FlexonCompiler().compile(create_model("LIF"), DT)

        def rate(i_bg):
            neuron = with_background_current(
                compiled, i_bg
            ).instantiate_folded(1)
            zeros = np.zeros((2, 1), dtype=np.int64)
            return sum(int(neuron.step(zeros.copy())[0]) for _ in range(2000))

        # 150 units -> 0.75/step (fires every other step);
        # 400 units -> 2.0/step (fires every step).
        assert rate(150.0) < rate(400.0)
