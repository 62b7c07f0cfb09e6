"""The folded step plan: compiled once, bound to live register rows.

``FoldedFlexonNeuron`` lowers its microprogram at construction into ops
holding *views* of ``regs`` rows and executes them over preallocated
scratch. These tests pin what that binding must survive — state
replacement, degenerate sizes — and the interpreter semantics a
hand-written program can observe (``tmp`` is zero at the first signal
of every step).
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fixedpoint import FLEXON_FORMAT, fx_from_float, fx_mul
from repro.hardware.backend import (
    FlexonBackend,
    FoldedFlexonBackend,
    HardwareRuntime,
)
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.control import AOperand, BOperand, ControlSignal, STATE_V
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.microcode import Microprogram
from repro.models.registry import create_model
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PoissonStimulus

DT = 1e-4


def _compiled(model):
    return FlexonCompiler().compile(create_model(model), DT)


def _inputs(compiled, n, rng, rate=0.3):
    n_types = compiled.constants.n_synapse_types
    weights = (rng.random((n_types, n)) < rate) * 1.5
    return fx_from_float(weights * compiled.weight_scale, FLEXON_FORMAT)


class TestTmpLatch:
    """``tmp`` reads as zero until the step's first signal latches it."""

    def _neuron(self, signals, add_constants=(), mul_constants=()):
        base = _compiled("LIF").program
        program = Microprogram(
            features=base.features,
            constants=base.constants,
            signals=tuple(signals),
            mul_constants=tuple(mul_constants),
            add_constants=tuple(add_constants),
        )
        return FoldedFlexonNeuron(program, 3)

    def test_first_signal_multiplying_by_tmp_sees_zero_every_step(self):
        k = fx_from_float(0.25, FLEXON_FORMAT)
        neuron = self._neuron(
            [
                ControlSignal(
                    a=AOperand.TMP, b=BOperand.CONSTANT, cb=0, s=STATE_V,
                    v_acc=True,
                )
            ],
            add_constants=[k],
        )
        zeros = np.zeros((2, 3), dtype=np.int64)
        for _ in range(3):
            # 0 * v + k; a tmp carried over from the last step (== k)
            # would add k*v >> 22 from the second step on.
            assert not neuron.step(zeros).any()
            assert neuron.regs[STATE_V].tolist() == [k, k, k]

    def test_first_signal_adding_tmp_sees_zero_every_step(self):
        half = fx_from_float(0.5, FLEXON_FORMAT)
        neuron = self._neuron(
            [
                ControlSignal(
                    a=AOperand.CONSTANT, ca=0, b=BOperand.TMP, s=STATE_V,
                    v_acc=True,
                )
            ],
            mul_constants=[half],
        )
        neuron.regs[STATE_V] = fx_from_float(0.5, FLEXON_FORMAT)
        zeros = np.zeros((2, 3), dtype=np.int64)
        v = int(neuron.regs[STATE_V][0])
        for _ in range(3):
            neuron.step(zeros)
            v = fx_mul(half, v, FLEXON_FORMAT)  # + tmp, which is 0
            assert neuron.regs[STATE_V].tolist() == [v, v, v]


#: Both arrays own the same register file.
ARRAYS = ["instantiate_flexon", "instantiate_folded"]


class TestStateReplacement:
    @pytest.mark.parametrize("array", ARRAYS)
    @pytest.mark.parametrize("model", ["DLIF", "Izhikevich", "LIF"])
    def test_restore_writes_through_the_bound_rows(self, model, array):
        compiled = _compiled(model)
        rng = np.random.default_rng(5)
        donor = getattr(compiled, array)(7)
        for _ in range(60):
            donor.step(_inputs(compiled, 7, rng))

        fresh = getattr(compiled, array)(7)
        regs, cnt = fresh.regs, fresh.cnt
        fresh.restore(donor.snapshot())
        # Same buffers, new contents: the plan's row views stay live.
        assert fresh.regs is regs and fresh.cnt is cnt
        assert np.array_equal(fresh.regs, donor.regs)
        for _ in range(60):
            raw = _inputs(compiled, 7, rng)
            assert np.array_equal(fresh.step(raw.copy()), donor.step(raw))
            assert np.array_equal(fresh.regs, donor.regs)
        assert fresh.total_cycles == donor.total_cycles
        if cnt is not None:
            assert np.array_equal(fresh.cnt, donor.cnt)

    def test_restore_rejects_a_mismatched_counter(self):
        for array in ARRAYS:
            neuron = getattr(_compiled("DLIF"), array)(4)
            snapshot = neuron.snapshot()
            snapshot["cnt"] = np.zeros(1, dtype=np.int64)  # would broadcast
            with pytest.raises(SimulationError, match="refractory counter"):
                neuron.restore(snapshot)
            snapshot["cnt"] = None
            with pytest.raises(SimulationError, match="refractory counter"):
                neuron.restore(snapshot)

    def test_step_keeps_the_counter_in_place(self):
        compiled = _compiled("DLIF")
        for array in ARRAYS:
            neuron = getattr(compiled, array)(5)
            cnt = neuron.cnt
            rng = np.random.default_rng(2)
            for _ in range(200):
                neuron.step(_inputs(compiled, 5, rng, rate=0.6))
            assert neuron.cnt is cnt
            assert neuron.total_cycles == 200 * 5 * neuron.cycles_per_neuron

    @pytest.mark.parametrize("array", ARRAYS)
    def test_restore_refuses_a_payload_that_is_not_a_register_file(self, array):
        neuron = getattr(_compiled("DLIF"), array)(4)
        # Baseline Flexon's payload before both arrays shared registers.
        words = {name: np.zeros(4, np.int64) for name in neuron.state}
        for payload in (words, None, {**neuron.snapshot(), "v": words["v"]}):
            with pytest.raises(SimulationError, match="not a Flexon register file"):
                neuron.restore(payload)

    @pytest.mark.parametrize("array", ARRAYS)
    def test_a_view_shares_the_registers_and_refuses_to_step(self, array):
        compiled = _compiled("DLIF")
        neuron = getattr(compiled, array)(7)
        rng = np.random.default_rng(4)
        for _ in range(30):
            neuron.step(_inputs(compiled, 7, rng, rate=0.6))
        view = neuron.view(2, 5)
        assert list(view.state) == list(neuron.state)
        for name, rows in view.state.items():
            assert np.shares_memory(rows, neuron.state[name])
            assert np.array_equal(rows, neuron.state[name][2:5])
        assert view.total_cycles == 30 * 3 * neuron.cycles_per_neuron
        with pytest.raises(SimulationError, match="columns of a larger array"):
            view.step(_inputs(compiled, 3, rng))
        view.restore({**view.snapshot(), "total_cycles": 0})
        assert neuron.steps == 0


class TestDegenerateSizes:
    @pytest.mark.parametrize("model", ["LIF", "LLIF", "Izhikevich", "AdEx"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_arrays_of_zero_and_one_neuron_agree(self, model, n):
        compiled = _compiled(model)
        flexon = compiled.instantiate_flexon(n)
        folded = compiled.instantiate_folded(n)
        rng = np.random.default_rng(9)
        for _ in range(300):
            raw = _inputs(compiled, n, rng)
            fired = folded.step(raw.copy())
            assert fired.shape == (n,)
            assert np.array_equal(flexon.step(raw), fired)
        assert folded.total_cycles == 300 * n * folded.cycles_per_neuron

    @pytest.mark.parametrize("folded", [False, True])
    def test_empty_runtime_advances_and_checks_nothing(self, folded):
        compiled = _compiled("DLIF")
        runtime = HardwareRuntime("nobody", 0, compiled, DT, folded)
        n_types = compiled.constants.n_synapse_types
        for _ in range(3):
            assert runtime.advance(np.zeros((n_types, 0)), DT).shape == (0,)
        assert runtime.saturation_stats.checked == 0
        assert runtime.saturation_stats.total_clipped == 0

    def test_single_neuron_populations_step_with_equal_digests(self):
        # ``Population`` rejects n == 0 up front, so the smallest
        # network the simulator can carry is made of n == 1 populations.
        def network():
            rng = np.random.default_rng(3)
            net = Network("singletons")
            one = net.add_population("one", 1, "Izhikevich")
            other = net.add_population("other", 1, "AdEx")
            net.connect("one", "other", probability=1.0, weight=0.3,
                        syn_type=0, rng=rng)
            net.connect("other", "one", probability=1.0, weight=0.1,
                        syn_type=1, rng=rng, delay_steps=2)
            for population in (one, other):
                net.add_stimulus(
                    PoissonStimulus(population, rate_hz=900.0, weight=0.25,
                                    dt=DT, n_sources=12)
                )
            return net

        results = [
            Simulator(network(), backend, dt=DT, seed=4).run(1200)
            for backend in (FlexonBackend(DT), FoldedFlexonBackend(DT))
        ]
        assert results[0].total_spikes() > 0
        assert results[0].spikes.digest() == results[1].spikes.digest()
