"""The folded step that scans every saturation point, kept as the oracle.

This is the body :meth:`repro.hardware.folded.FoldedFlexonNeuron.step`
ran before it carried enclosures or grouped signals into waves: one
control signal at a time, in program order, and every MUL, ADD, v'
accumulation and the membrane write-back goes through ``fx_saturate``,
which reads the array's two extremes each time. Nothing is proved, so
nothing can be proved wrongly; the range-proving step must reproduce it
bit for bit — registers, counter, fired mask, cycles — and record the
same ``checked`` and per-format ``clipped`` counts.

It reads only the program (``signals`` and the constant buffers) and
the register file, over scratch rows of its own, so it shares nothing
with the executor it checks.
"""

import numpy as np

from repro.errors import SimulationError
from repro.features import Feature
from repro.fixedpoint import MEMBRANE_FORMAT, fx_exp, fx_saturate
from repro.hardware import datapaths as dp
from repro.hardware.backend import FoldedFlexonBackend
from repro.hardware.control import STATE_R, STATE_V, STATE_W, AOperand, BOperand
from repro.hardware.folded import FoldedFlexonNeuron


class ScanningFoldedNeuron(FoldedFlexonNeuron):
    """Same registers, its own scratch rows; every point scanned."""

    def __init__(self, program, n, membrane_format=MEMBRANE_FORMAT):
        super().__init__(program, n, membrane_format)
        # The MUL output, the tmp latch and the accumulator v'.
        self._scan_rows = np.empty((3, n), dtype=np.int64)

    def _jump_list(self):
        """Spike-triggered jumps as (register, raw increment)."""
        c = self.program.constants
        owner = self.program.features.w_owner
        if owner is Feature.RR:
            return ((STATE_W, c.b), (STATE_R, c.q_r))
        if owner is not None:
            return ((STATE_W, -c.b),)
        return ()

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        program = self.program
        c = program.constants
        fmt = c.fmt
        if raw_inputs.shape != (c.n_synapse_types, self.n):
            raise SimulationError(f"bad input shape {raw_inputs.shape}")
        cnt = self.cnt
        gated = dp.ArPath.gate(raw_inputs, cnt) if cnt is not None else raw_inputs

        frac_bits = fmt.frac_bits
        prod_row, tmp_row, acc_row = self._scan_rows
        tmp_row.fill(0)
        acc_row.fill(0)
        tmp, acc = tmp_row, acc_row
        for signal in program.signals:
            state = self.regs[signal.s]
            b = BOperand(signal.b)
            row = tmp_row if b is BOperand.ZERO else prod_row
            if signal.a == AOperand.TMP:
                np.multiply(tmp, state, out=row)
            else:
                np.multiply(int(program.mul_constants[signal.ca]), state, out=row)
            np.right_shift(row, frac_bits, out=row)
            out = fx_saturate(row, fmt)
            if b is not BOperand.ZERO:
                if b is BOperand.CONSTANT:
                    np.add(out, int(program.add_constants[signal.cb]), out=tmp_row)
                elif b is BOperand.INPUT:
                    np.add(out, gated[signal.syn_type], out=tmp_row)
                elif b is BOperand.TMP:
                    np.add(out, tmp, out=tmp_row)
                else:  # LEAK
                    np.maximum(state, 0, out=tmp_row)
                    np.minimum(tmp_row, c.v_leak, out=tmp_row)
                    np.subtract(out, tmp_row, out=tmp_row)
                out = fx_saturate(tmp_row, fmt)
            if signal.exp:
                out = fx_exp(out, fmt)
            tmp = out
            if signal.s_wr:
                state[...] = out
            if signal.v_acc:
                np.add(acc, out, out=acc_row)
                acc = fx_saturate(acc_row, fmt)

        fired = acc > c.threshold
        np.copyto(acc, c.v_reset, where=fired)
        self.regs[STATE_V] = fx_saturate(acc, self.membrane_format)
        for s, jump in self._jump_list():
            np.add(self.regs[s], jump, out=self.regs[s], where=fired)
        if cnt is not None:
            cnt[...] = dp.ArPath.tick(cnt)
            cnt[fired] = c.cnt_max
        self.steps += 1
        return fired


def scanning(neuron: FoldedFlexonNeuron) -> ScanningFoldedNeuron:
    """A scanning twin of ``neuron``, starting from the same registers."""
    twin = ScanningFoldedNeuron(neuron.program, neuron.n, neuron.membrane_format)
    twin.restore(neuron.snapshot())
    return twin


class ScanningFoldedBackend(FoldedFlexonBackend):
    """The folded backend with every population on the scanning step."""

    def build_runtime(self, population):
        runtime = super().build_runtime(population)
        runtime.neuron = scanning(runtime.neuron)
        return runtime
