"""Waves: the folded step issues hazard-free groups of signals together.

``FoldedFlexonNeuron`` lowers its program into
:func:`~repro.hardware.folded.waves` and runs each wave as one numpy call
per stage. These tests hold that grouping to every hazard a hand-assembled
program can set: each program runs in lockstep with the signal-at-a-time
scanning oracle (``tests/oracles/folded_scan.py``) on salted registers,
so unproved rows take the saturating path, and must give equal
registers, counter, fired mask, ``checked`` and per-format ``clipped``.
The proof counters of every registry workload are pinned as well: the
waves must prove exactly the points the signal-at-a-time step proved.
"""

import numpy as np
import pytest

import tests.hardware.test_folded_plan as folded_plan
from repro.fixedpoint import (
    FLEXON_FORMAT,
    SaturationStats,
    fx_from_float,
    observe_saturation,
)
from repro.frontend import build_simulation
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.control import (
    N_STATE_REGISTERS,
    STATE_G,
    STATE_V,
    STATE_W,
    AOperand,
    BOperand,
    ControlSignal,
)
from repro.hardware.folded import waves
from repro.models.registry import create_model
from repro.workloads import spec_for, workload_names
from tests.hardware.test_range_proof import SALT
from tests.oracles.folded_scan import scanning

#: The folded-plan tests' hand-assembly helper: LIF's constants, three
#: neurons, no membrane write-back.
_neuron = folded_plan.TestTmpLatch()._neuron

MUL = [fx_from_float(x, FLEXON_FORMAT) for x in (0.75, -1.0, 1.5)]
ADD = [fx_from_float(x, FLEXON_FORMAT) for x in (0.25, -0.5)]
G0, G1, V, W = STATE_G[0], STATE_G[1], STATE_V, STATE_W


def _signal(a=AOperand.CONSTANT, ca=0, b=BOperand.ZERO, s=V, **flags):
    return ControlSignal(a=a, ca=ca, b=b, s=s, **flags)


#: name -> (signals, expected waves).
PROGRAMS = {
    "read after write": (
        [
            _signal(ca=0, b=BOperand.INPUT, s=G0, s_wr=True),
            _signal(ca=2, s=G0, v_acc=True),
        ],
        ((0,), (1,)),
    ),
    # Signal 1 reads g0 a wave late (it waits for its tmp), so the write
    # after it must wait too, into the same wave: reads come first.
    "write after read": (
        [
            _signal(ca=1, b=BOperand.CONSTANT, cb=0, s=V),
            _signal(a=AOperand.TMP, s=G0, v_acc=True),
            _signal(ca=0, b=BOperand.INPUT, s=G0, s_wr=True),
            _signal(ca=2, s=G0, v_acc=True),
        ],
        ((0,), (1, 2), (3,)),
    ),
    "two writes to one register": (
        [
            _signal(ca=0, b=BOperand.INPUT, s=G0, s_wr=True, v_acc=True),
            _signal(ca=1, b=BOperand.CONSTANT, cb=1, s=G0, s_wr=True, v_acc=True),
            _signal(ca=2, s=G0, v_acc=True),
        ],
        ((0,), (1,), (2,)),
    ),
    "A=TMP chain": (
        [
            _signal(ca=1, b=BOperand.CONSTANT, cb=0, s=V),
            _signal(a=AOperand.TMP, s=G0),
            _signal(a=AOperand.TMP, s=G1, v_acc=True),
        ],
        ((0,), (1,), (2,)),
    ),
    "B=TMP chain": (
        [
            _signal(ca=0, s=V),
            _signal(ca=2, b=BOperand.TMP, s=G0),
            _signal(ca=0, b=BOperand.TMP, s=G1, s_wr=True, v_acc=True),
        ],
        ((0,), (1,), (2,)),
    ),
    # Muller's signals 5 and 11 (one ADD each), and a pair that share
    # one product row and both feed v'.
    "two identical signals": (
        [
            _signal(ca=1, b=BOperand.CONSTANT, cb=0, s=V),
            _signal(a=AOperand.TMP, s=G0, v_acc=True),
            _signal(ca=1, b=BOperand.CONSTANT, cb=0, s=V),
            _signal(a=AOperand.TMP, s=G1, v_acc=True),
            _signal(ca=2, s=V, v_acc=True),
            _signal(ca=2, s=V, v_acc=True),
        ],
        ((0, 2, 4, 5), (1, 3)),
    ),
    # LEAK reads v in the ADD stage of the wave whose end writes it.
    "LEAK beside a write of its register": (
        [
            _signal(ca=0, b=BOperand.LEAK, s=V, v_acc=True),
            _signal(ca=2, b=BOperand.CONSTANT, cb=1, s=V, exp=True, s_wr=True),
            _signal(ca=0, s=V, v_acc=True),
        ],
        ((0, 1), (2,)),
    ),
    # AdEx's mid-program ``tmp, v <- exp(...)``, and an exponentiated
    # product with the ADD port at zero.
    "EXP": (
        [
            _signal(ca=0, s=V, v_acc=True),
            _signal(ca=1, b=BOperand.CONSTANT, cb=0, s=V),
            _signal(ca=2, b=BOperand.TMP, s=W, s_wr=True, v_acc=True),
            _signal(ca=0, b=BOperand.CONSTANT, cb=1, s=V, exp=True, s_wr=True),
            _signal(ca=2, s=V, v_acc=True),
            _signal(ca=0, s=G0, exp=True, v_acc=True),
        ],
        ((0, 1, 3, 5), (2, 4)),
    ),
}


def _lockstep(neuron, seed, steps=80):
    """Step ``neuron`` and its scanning twin on salted state."""
    rng = np.random.default_rng(seed)
    n, n_types = neuron.n, neuron.program.constants.n_synapse_types
    neuron.regs[...] = fx_from_float(
        rng.normal(0.0, 0.5, neuron.regs.shape), FLEXON_FORMAT
    )
    oracle = scanning(neuron)
    stats, oracle_stats = SaturationStats(), SaturationStats()
    for step in range(steps):
        raw = fx_from_float(rng.normal(0.0, 0.5, (n_types, n)), FLEXON_FORMAT)
        if rng.random() < 0.6:
            salt = SALT[rng.integers(len(SALT))]
            column = rng.integers(n)
            if rng.random() < 0.3:
                raw[rng.integers(n_types), column] = salt
            else:
                row = rng.integers(N_STATE_REGISTERS)
                neuron.regs[row, column] = oracle.regs[row, column] = salt
        with observe_saturation(stats):
            fired = neuron.step(raw.copy())
        with observe_saturation(oracle_stats):
            oracle_fired = oracle.step(raw.copy())
        assert np.array_equal(fired, oracle_fired), step
        assert np.array_equal(neuron.regs, oracle.regs), step
        assert (neuron.cnt is None) == (oracle.cnt is None)
        if neuron.cnt is not None:
            assert np.array_equal(neuron.cnt, oracle.cnt), step
        assert stats.checked == oracle_stats.checked, step
        assert stats.clipped == oracle_stats.clipped, step
    return stats


class TestHazards:
    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_grouping(self, name):
        signals, expected = PROGRAMS[name]
        assert waves(signals) == expected

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_the_signal_at_a_time_oracle(self, name, seed):
        signals, _ = PROGRAMS[name]
        neuron = _neuron(signals, add_constants=ADD, mul_constants=MUL)
        stats = _lockstep(neuron, seed)
        # Not vacuous: the salt reaches the scanning path, and the rest
        # of the points are proved.
        assert stats.total_clipped > 0
        assert neuron.points_scanned > 0 and neuron.points_proved > 0

    def test_muller_is_two_waves(self):
        program = FlexonCompiler().compile(
            create_model("IF_cond_exp_gsfa_grr"), 1e-4
        ).program
        assert len(program.signals) == 13
        assert len(waves(program.signals)) == 2


#: ``(points_proved, points_scanned)`` of the folded backend after 300
#: steps at scale 0.03, seed 5, as the signal-at-a-time step counted them.
PROOF_COUNTERS = {
    "Brette et al.": (4500, 0),
    "Brunel": (4500, 0),
    "Destexhe-LTS": (8980, 20),
    "Destexhe-UpDown": (8841, 159),
    "Izhikevich": (6124, 176),
    "Muller et al.": (7500, 0),
    "Nowotny et al.": (6137, 163),
    "Potjans-Diesmann": (2700, 0),
    "Vogels et al.": (4500, 0),
    "Vogels-Abbott": (4500, 0),
}


def test_every_registry_workload_has_pinned_counters():
    assert sorted(PROOF_COUNTERS) == sorted(workload_names())


@pytest.mark.parametrize("workload", sorted(PROOF_COUNTERS))
def test_the_waves_prove_what_the_signals_proved(workload):
    spec = {**spec_for(workload, 0.03, 5), "backend": "folded"}
    simulator, _ = build_simulation(spec)
    simulator.run(300)
    blocks = simulator.backend.block_runtimes.values()
    counters = (
        sum(runtime.neuron.points_proved for runtime in blocks),
        sum(runtime.neuron.points_scanned for runtime in blocks),
    )
    assert counters == PROOF_COUNTERS[workload]
