"""The folded step that scans every saturation point, kept as the oracle.

This is the body :meth:`repro.hardware.folded.FoldedFlexonNeuron.step`
ran before it carried enclosures: every MUL, ADD, v' accumulation and
the membrane write-back goes through ``fx_saturate``, which reads the
array's two extremes each time. Nothing is proved, so nothing can be
proved wrongly; the range-proving step must reproduce it bit for bit —
registers, counter, fired mask, cycles — and record the same ``checked``
and per-format ``clipped`` counts.
"""

import numpy as np

from repro.errors import SimulationError
from repro.fixedpoint import fx_exp, fx_saturate
from repro.hardware import datapaths as dp
from repro.hardware.backend import FoldedFlexonBackend
from repro.hardware.control import STATE_V, BOperand
from repro.hardware.folded import FoldedFlexonNeuron


class ScanningFoldedNeuron(FoldedFlexonNeuron):
    """Same plan, same scratch rows; every point scanned."""

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        c = self.program.constants
        fmt = c.fmt
        if raw_inputs.shape != (c.n_synapse_types, self.n):
            raise SimulationError(f"bad input shape {raw_inputs.shape}")
        cnt = self.cnt
        gated = dp.ArPath.gate(raw_inputs, cnt) if cnt is not None else raw_inputs

        frac_bits = fmt.frac_bits
        prod_row, tmp_row, acc_row = self._prod, self._tmp, self._acc
        tmp_row.fill(0)
        acc_row.fill(0)
        tmp, acc = tmp_row, acc_row
        for mul_constant, _, state, b, b_arg, exp, s_wr, v_acc in self._plan:
            row = tmp_row if b is BOperand.ZERO else prod_row
            np.multiply(tmp if mul_constant is None else mul_constant, state, out=row)
            np.right_shift(row, frac_bits, out=row)
            out = fx_saturate(row, fmt)
            if b is not BOperand.ZERO:
                if b is BOperand.CONSTANT:
                    np.add(out, b_arg, out=tmp_row)
                elif b is BOperand.INPUT:
                    np.add(out, gated[b_arg], out=tmp_row)
                elif b is BOperand.TMP:
                    np.add(out, tmp, out=tmp_row)
                else:  # LEAK
                    np.maximum(state, 0, out=tmp_row)
                    np.minimum(tmp_row, c.v_leak, out=tmp_row)
                    np.subtract(out, tmp_row, out=tmp_row)
                out = fx_saturate(tmp_row, fmt)
            if exp:
                out = fx_exp(out, fmt)
            tmp = out
            if s_wr:
                state[...] = out
            if v_acc:
                np.add(acc, out, out=acc_row)
                acc = fx_saturate(acc_row, fmt)

        fired = acc > c.threshold
        np.copyto(acc, c.v_reset, where=fired)
        if self.membrane_format is not None:
            acc = fx_saturate(acc, self.membrane_format)
        self.regs[STATE_V] = acc
        for row, jump in self._jumps:
            np.add(row, jump, out=row, where=fired)
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
