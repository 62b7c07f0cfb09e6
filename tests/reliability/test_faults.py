"""Tests: fault injection corrupts exactly what it says it does."""

import numpy as np
import pytest

from repro.engine.runtime import CompiledRuntime, SolverRuntime
from repro.errors import SimulationError
from repro.hardware.backend import FlexonBackend, FoldedFlexonBackend
from repro.network.backends import ReferenceBackend
from repro.network.simulator import Simulator
from repro.reliability import (
    BitFlipFault,
    Checkpoint,
    FaultInjector,
    InputPerturbFault,
    SpikeDropFault,
)

DT = 1e-4


def _simulator(small_network, backend=None):
    return Simulator(
        small_network,
        backend if backend is not None else ReferenceBackend("Euler"),
        dt=DT,
        seed=3,
    )


class _ScriptedDraws:
    """Stands in for an injector's generator: hands out fixed draws."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def integers(self, high):
        return next(self._draws)


def _word(values, index):
    return int(values[index:index + 1].copy().view(np.uint64)[0])


class TestFaultInjector:
    @pytest.mark.parametrize(
        "backend, runtime_type",
        [
            (lambda: ReferenceBackend("Euler"), CompiledRuntime),
            (lambda: ReferenceBackend("RKF45"), SolverRuntime),
            (lambda: ReferenceBackend("Euler", use_engine=False), SolverRuntime),
        ],
        ids=["compiled", "solver-lowered", "solver-dict"],
    )
    def test_float_flip_toggles_exactly_the_drawn_bit(
        self, small_network, backend, runtime_type
    ):
        # Every bit, the sign bit 63 included, toggles in the value's
        # IEEE-754 word (a signed int64 round trip overflows on bit 63).
        simulator = _simulator(small_network, backend())
        simulator.run(20)
        runtime = simulator.backend.runtime("exc")
        assert isinstance(runtime, runtime_type)
        injector = FaultInjector(simulator)
        values = runtime.state()["v"]
        for bit in range(64):
            before = _word(values, 3)
            injector.rng = _ScriptedDraws(0, 3, bit)
            (flip,) = injector.flip_state_bits("exc", variable="v")
            assert (flip.neuron, flip.bit) == (3, bit)
            assert _word(values, 3) == before ^ (1 << bit)

    def test_float_flip_changes_exactly_one_value(self, small_network):
        simulator = _simulator(small_network)
        before = {
            k: v.copy()
            for k, v in simulator.backend.runtime("exc").state().items()
        }
        flips = FaultInjector(simulator, seed=1).flip_state_bits("exc")
        assert len(flips) == 1
        flip = flips[0]
        assert flip.domain == "float"
        assert 0 <= flip.bit < 64
        after = simulator.backend.runtime("exc").state()
        changed = sum(
            int(not np.array_equal(before[k], after[k])) for k in before
        )
        assert changed == 1
        assert not np.array_equal(
            before[flip.variable], after[flip.variable]
        )

    def test_flips_are_deterministic_in_seed(self, small_network):
        a = FaultInjector(_simulator(small_network), seed=9)
        b = FaultInjector(_simulator(small_network), seed=9)
        assert a.flip_state_bits("exc", n_flips=4) == b.flip_state_bits(
            "exc", n_flips=4
        )

    @pytest.mark.parametrize(
        "backend_factory", [FlexonBackend, FoldedFlexonBackend]
    )
    def test_hardware_flip_lands_in_raw_words(
        self, small_network, backend_factory
    ):
        simulator = _simulator(small_network, backend_factory(DT))
        injector = FaultInjector(simulator, seed=2)
        flips = injector.flip_state_bits("exc", n_flips=3)
        fmt = simulator.backend.runtime("exc").compiled.constants.fmt
        for flip in flips:
            assert flip.domain == "fixed"
            assert 0 <= flip.bit < fmt.total_bits

    @pytest.mark.parametrize("variable", ["v", "cnt"])
    def test_flip_after_restore_reaches_the_folded_step_plan(
        self, small_network, variable
    ):
        # The folded plan binds register-row views at construction; a
        # restore must write through them, or a later upset in the
        # (replaced) register file would never reach the datapath.
        donor = _simulator(small_network, FoldedFlexonBackend(DT))
        donor.run(40)
        checkpoint = Checkpoint.capture(donor)
        clean = _simulator(small_network, FoldedFlexonBackend(DT))
        upset = _simulator(small_network, FoldedFlexonBackend(DT))
        checkpoint.restore(clean)
        checkpoint.restore(upset)
        flips = FaultInjector(upset, seed=6).flip_state_bits(
            "exc", n_flips=12, variable=variable
        )
        hit = sorted({flip.neuron for flip in flips})
        stored = upset.backend.runtime("exc").state()[variable][hit].copy()
        clean.run(1)
        upset.run(1)
        after = upset.backend.runtime("exc").state()[variable][hit]
        # The corrupted words were computed on (decayed / ticked), not
        # left sitting in a register file the datapath no longer reads.
        assert not np.array_equal(after, stored)
        assert not np.array_equal(
            after, clean.backend.runtime("exc").state()[variable][hit]
        )

    def test_variable_filter_is_respected(self, small_network):
        simulator = _simulator(small_network)
        flips = FaultInjector(simulator, seed=3).flip_state_bits(
            "exc", n_flips=5, variable="v"
        )
        assert all(flip.variable == "v" for flip in flips)

    def test_unknown_variable_rejected(self, small_network):
        simulator = _simulator(small_network)
        with pytest.raises(SimulationError, match="no variable"):
            FaultInjector(simulator).flip_state_bits("exc", variable="zz")

    def test_nan_injection_rejected_on_hardware(self, small_network):
        simulator = _simulator(small_network, FlexonBackend(DT))
        with pytest.raises(SimulationError, match="fixed point"):
            FaultInjector(simulator).inject_nan("exc")


class TestSustainedFaults:
    def test_bit_flip_fault_fires_on_schedule(self, small_network):
        simulator = _simulator(small_network)
        fault = BitFlipFault(simulator, "exc", every=10, seed=4)
        simulator.run(35, hooks=[fault])
        assert len(fault.log) == 3  # steps 10, 20, 30 (not 0)

    def test_a_flip_every_step_keeps_the_hook_attached(self, small_network):
        simulator = _simulator(small_network)
        fault = BitFlipFault(simulator, "exc", every=1, seed=4)
        result = simulator.run(300, hooks=[fault])
        assert result.hook_errors == []
        assert len(fault.log) == 299
        assert any(flip.bit == 63 for flip in fault.log)

    def test_bit_flip_fault_validates_interval(self, small_network):
        simulator = _simulator(small_network)
        with pytest.raises(SimulationError):
            BitFlipFault(simulator, "exc", every=0)

    def test_spike_drop_p1_silences_the_network(self, small_network):
        clean = _simulator(small_network).run(100).total_spikes()
        assert clean > 0
        simulator = _simulator(small_network)
        fault = SpikeDropFault(simulator, p_drop=1.0, seed=5)
        result = simulator.run(100, hooks=[fault])
        assert result.total_spikes() == 0
        assert fault.dropped > 0

    def test_spike_drop_p0_is_a_no_op(self, small_network):
        clean = _simulator(small_network).run(100)
        simulator = _simulator(small_network)
        fault = SpikeDropFault(simulator, p_drop=0.0)
        faulty = simulator.run(100, hooks=[fault])
        assert fault.dropped == 0
        assert (
            clean.spikes.result("exc").spike_pairs()
            == faulty.spikes.result("exc").spike_pairs()
        )

    def test_spike_drop_validates_probability(self, small_network):
        with pytest.raises(SimulationError):
            SpikeDropFault(_simulator(small_network), p_drop=1.5)

    def test_input_perturb_touches_active_entries_only(self, small_network):
        simulator = _simulator(small_network)
        fault = InputPerturbFault(simulator, sigma=0.01, seed=6)
        simulator.run(100, hooks=[fault])
        assert fault.perturbed > 0

    def test_input_perturb_sigma_zero_is_a_no_op(self, small_network):
        clean = _simulator(small_network).run(100)
        simulator = _simulator(small_network)
        fault = InputPerturbFault(simulator, sigma=0.0)
        faulty = simulator.run(100, hooks=[fault])
        assert fault.perturbed == 0
        assert (
            clean.spikes.result("exc").spike_pairs()
            == faulty.spikes.result("exc").spike_pairs()
        )

    def test_input_perturb_validates_sigma(self, small_network):
        with pytest.raises(SimulationError):
            InputPerturbFault(_simulator(small_network), sigma=-0.1)
