"""Spatially folded Flexon: microcoded two-stage pipeline (Figure 11).

Where the baseline Flexon instantiates every data path, the folded
design shares one multiplier, one adder and one exponential unit, and
schedules each feature's sub-operations over them with control signals
(Section V-B). This model executes assembled
:class:`~repro.hardware.microcode.Microprogram` objects, lowered once
per neuron array into a flat plan (compile once, step many):

* **stage 1** executes the control signals — each is one pass through
  the shared MUL-ADD(-EXP) with operands selected per Table IV — and
  accumulates contributions into the membrane accumulator v';
* **stage 2** checks the firing condition, applies resets and
  spike-triggered jumps, ticks the refractory counter, and writes the
  (truncated) membrane value back.

Functional correctness is verified against the baseline Flexon bit for
bit (the equivalence the paper's Table V schedules must guarantee), and
the per-neuron cycle occupancy (``signals + 1``) feeds the Figure 13
latency model — e.g. QDI's structural hazard on the single multiplier
makes its simulation take an extra cycle, exactly as Section V-B notes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.features import Feature
from repro.fixedpoint import (
    MEMBRANE_FORMAT,
    FixedFormat,
    fx_exp,
    fx_exp_enclosure,
    fx_record_proved,
    fx_saturate_enclosed,
)
from repro.hardware import datapaths as dp
from repro.hardware.control import (
    AOperand,
    BOperand,
    N_STATE_REGISTERS,
    STATE_NAMES,
    STATE_R,
    STATE_V,
    STATE_W,
)
from repro.hardware.microcode import Microprogram


class FoldedFlexonNeuron:
    """A vectorised array of folded Flexon neurons running one program.

    The program is lowered **once**, at construction, into a flat plan
    of resolved ops (see :meth:`_lower`); :meth:`step` executes that
    plan over three preallocated int64 scratch rows. The register file
    ``regs`` and the refractory counter ``cnt`` are only ever written
    in place, so the row views the plan holds stay bound across
    :meth:`restore` and fault injection — and so does a :meth:`view` of
    some of the array's columns.
    """

    def __init__(
        self,
        program: Microprogram,
        n: int,
        membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
    ):
        self.program = program
        self.n = n
        self.membrane_format = membrane_format
        self.regs = np.zeros((N_STATE_REGISTERS, n), dtype=np.int64)
        if Feature.AR in program.features:
            self.cnt = np.zeros(n, dtype=np.int64)
        else:
            self.cnt = None
        #: Time steps executed so far.
        self.steps = 0
        #: Saturation points an enclosure proved in range / had to scan,
        #: over the whole array (the enclosure is array-wide).
        #: Diagnostics only: not part of :meth:`snapshot`.
        self.points_proved = 0
        self.points_scanned = 0
        # Scratch rows: the MUL output, the tmp latch, the accumulator v',
        # and the AR-gated inputs.
        self._prod, self._tmp, self._acc = np.empty((3, n), dtype=np.int64)
        self._gated = np.empty((program.constants.n_synapse_types, n), np.int64)
        self._plan = self._lower(program)
        # Registers the plan reads (their ranges are scanned every step,
        # from one copy into ``_read``) and stage 1's saturation points
        # per step: one per MUL, per ADD and per v' accumulation.
        self._rows_read = tuple(sorted({signal.s for signal in program.signals}))
        self._read = np.empty((len(self._rows_read), n), dtype=np.int64)
        self._stage1_points = sum(
            1 + (signal.b != BOperand.ZERO) + bool(signal.v_acc)
            for signal in program.signals
        )
        # Spike-triggered jumps as (register row, raw increment); signs
        # mirror FlexonNeuron (RR conductances grow on fire).
        c = program.constants
        owner = program.features.w_owner
        if owner is Feature.RR:
            jumps = ((STATE_W, c.b), (STATE_R, c.q_r))
        elif owner is not None:
            jumps = ((STATE_W, -c.b),)
        else:
            jumps = ()
        self._jumps = tuple((self.regs[s], jump) for s, jump in jumps)

    @property
    def cycles_per_neuron(self) -> int:
        """Pipeline occupancy of one neuron update."""
        return self.program.cycles_per_neuron

    @property
    def total_cycles(self) -> int:
        """Pipeline cycles consumed so far by this array's neurons."""
        return self.steps * self.n * self.cycles_per_neuron

    def view(self, lo: int, hi: int) -> "FoldedFlexonNeuron":
        """The neurons ``lo:hi`` of this array as an array of their own,
        over the same registers (see :class:`_FoldedColumns`)."""
        return _FoldedColumns(self, lo, hi)

    @property
    def points_per_step(self) -> int:
        """Saturation points of one step: stage 1's plus the write-back."""
        return self._stage1_points + (self.membrane_format is not None)

    def _lower(self, program: Microprogram) -> Tuple[tuple, ...]:
        """Resolve each control signal into one plan op.

        An op is ``(mul_constant, s, state_row, b, b_arg, exp, s_wr,
        v_acc)``: the raw MUL constant (``None`` selects ``tmp``), the
        state register's index and a view of its row, the ADD operand
        mode with its resolved argument (raw constant for ``CONSTANT``,
        input row for ``INPUT``), and the three flags. Order, operands
        and saturation points are the control signals' own.
        """
        plan = []
        for signal in program.signals:
            # Python ints: the enclosure arithmetic must not wrap.
            mul_constant = (
                int(program.mul_constants[signal.ca])
                if signal.a == AOperand.CONSTANT
                else None
            )
            b = BOperand(signal.b)
            if b is BOperand.CONSTANT:
                b_arg = int(program.add_constants[signal.cb])
            elif b is BOperand.INPUT:
                b_arg = signal.syn_type
            else:
                b_arg = None
            plan.append(
                (
                    mul_constant,
                    signal.s,
                    self.regs[signal.s],
                    b,
                    b_arg,
                    signal.exp,
                    signal.s_wr,
                    signal.v_acc,
                )
            )
        return tuple(plan)

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Advance every neuron one time step; return the fired mask."""
        c = self.program.constants
        fmt = c.fmt
        if raw_inputs.shape != (c.n_synapse_types, self.n):
            raise SimulationError(
                f"expected inputs of shape {(c.n_synapse_types, self.n)}, "
                f"got {raw_inputs.shape}"
            )
        cnt = self.cnt
        if cnt is not None:
            gated = dp.ArPath.gate(raw_inputs, cnt, out=self._gated)
        else:
            gated = raw_inputs

        # -- enclosures ------------------------------------------------------
        # A Python-int ``[lo, hi]`` rides beside every value below. A
        # saturation point whose enclosure lies inside its format is
        # proved in range: its array is not scanned, and the step records
        # all such points at once (``fx_record_proved``). Every other
        # point scans as it always did (``fx_saturate_enclosed``).
        # The rows and inputs this step reads are scanned here, every
        # step: ``restore`` and fault injection write ``regs`` through
        # views, so a range carried over would be stale.
        if self.n:
            # ``mode="clip"`` lets ``take`` write ``out`` unbuffered.
            read = self.regs.take(
                self._rows_read, axis=0, out=self._read, mode="clip"
            )
            lows, highs = read.min(axis=1).tolist(), read.max(axis=1).tolist()
            span = dict(zip(self._rows_read, zip(lows, highs)))
            in_lo, in_hi = int(gated.min()), int(gated.max())
        else:  # no values: any enclosure holds
            span = dict.fromkeys(self._rows_read, (0, 0))
            in_lo = in_hi = 0
        fmt_min, fmt_max = fmt.raw_min, fmt.raw_max
        scanned = 0

        # -- stage 1: execute the plan -------------------------------------
        # Each result lands in a scratch row; a saturation point hands
        # the row back when nothing clipped and a clipped copy otherwise,
        # so ``tmp``/``acc`` below name whichever holds the live value.
        frac_bits = fmt.frac_bits
        prod_row, tmp_row, acc_row = self._prod, self._tmp, self._acc
        tmp_row.fill(0)
        acc_row.fill(0)
        tmp, acc = tmp_row, acc_row
        tmp_lo = tmp_hi = acc_lo = acc_hi = 0
        for mul_constant, s, state, b, b_arg, exp, s_wr, v_acc in self._plan:
            row = tmp_row if b is BOperand.ZERO else prod_row
            s_lo, s_hi = span[s]
            if mul_constant is None:
                np.multiply(tmp, state, out=row)
                corners = (tmp_lo * s_lo, tmp_lo * s_hi, tmp_hi * s_lo, tmp_hi * s_hi)
                lo, hi = min(corners), max(corners)
            else:
                np.multiply(mul_constant, state, out=row)
                lo, hi = mul_constant * s_lo, mul_constant * s_hi
                if mul_constant < 0:
                    lo, hi = hi, lo
            np.right_shift(row, frac_bits, out=row)
            # The shift floors, so it is monotone: the ends map exactly.
            out, lo, hi = row, lo >> frac_bits, hi >> frac_bits
            if lo < fmt_min or hi > fmt_max:
                out, lo, hi = fx_saturate_enclosed(row, fmt, lo, hi)
                scanned += 1
            if b is not BOperand.ZERO:
                if b is BOperand.CONSTANT:
                    np.add(out, b_arg, out=tmp_row)
                    lo, hi = lo + b_arg, hi + b_arg
                elif b is BOperand.INPUT:
                    np.add(out, gated[b_arg], out=tmp_row)
                    lo, hi = lo + in_lo, hi + in_hi
                elif b is BOperand.TMP:
                    np.add(out, tmp, out=tmp_row)
                    lo, hi = lo + tmp_lo, hi + tmp_hi
                else:  # LEAK: clamped -V_leak of the selected state register
                    np.maximum(state, 0, out=tmp_row)
                    np.minimum(tmp_row, c.v_leak, out=tmp_row)
                    np.subtract(out, tmp_row, out=tmp_row)
                    lo, hi = lo - max(c.v_leak, 0), hi - min(c.v_leak, 0)
                out = tmp_row
                if lo < fmt_min or hi > fmt_max:
                    out, lo, hi = fx_saturate_enclosed(tmp_row, fmt, lo, hi)
                    scanned += 1
            if exp:
                out = fx_exp(out, fmt)
                lo, hi = fx_exp_enclosure(lo, hi, fmt)
            tmp, tmp_lo, tmp_hi = out, lo, hi
            if s_wr:
                state[...] = out
                span[s] = (lo, hi)
            if v_acc:
                np.add(acc, out, out=acc_row)
                acc, acc_lo, acc_hi = acc_row, acc_lo + lo, acc_hi + hi
                if acc_lo < fmt_min or acc_hi > fmt_max:
                    acc, acc_lo, acc_hi = fx_saturate_enclosed(
                        acc_row, fmt, acc_lo, acc_hi
                    )
                    scanned += 1

        fx_record_proved(fmt, self.n * (self._stage1_points - scanned))

        # -- stage 2: fire, reset, write back --------------------------------
        membrane = self.membrane_format
        fired = acc > c.threshold
        np.copyto(acc, c.v_reset, where=fired)
        if membrane is not None:
            # What is left is at most the threshold, or is the reset value.
            lo = min(acc_lo, c.v_reset)
            hi = max(min(acc_hi, c.threshold), c.v_reset)
            if lo < membrane.raw_min or hi > membrane.raw_max:
                acc, _, _ = fx_saturate_enclosed(acc, membrane, lo, hi)
                scanned += 1
            else:
                fx_record_proved(membrane, self.n)
        self.points_scanned += scanned
        self.points_proved += self.points_per_step - scanned
        self.regs[STATE_V] = acc
        for row, jump in self._jumps:
            np.add(row, jump, out=row, where=fired)
        if cnt is not None:
            dp.ArPath.tick(cnt, out=cnt)
            cnt[fired] = c.cnt_max
        self.steps += 1
        return fired

    # -- host-side views -------------------------------------------------------

    def float_state(self) -> Dict[str, np.ndarray]:
        """The architectural state as floats, named like the models'."""
        c = self.program.constants
        register = {name: row for row, name in STATE_NAMES.items()}
        out = {}
        for name in self.program.features.state_variables(c.n_synapse_types):
            if name == "cnt":
                out[name] = self.cnt.astype(np.float64)
            else:
                out[name] = self.regs[register[name]].astype(np.float64) / c.fmt.scale
        return out

    def snapshot(self) -> Dict[str, object]:
        """Copies of the architectural registers (checkpointing)."""
        return {
            "regs": self.regs.copy(),
            "cnt": None if self.cnt is None else self.cnt.copy(),
            "total_cycles": self.total_cycles,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Overwrite the register file from a :meth:`snapshot`."""
        regs = np.asarray(snapshot["regs"], dtype=np.int64)
        if regs.shape != self.regs.shape:
            raise SimulationError(
                f"snapshot register shape {regs.shape} does not match "
                f"{self.regs.shape}"
            )
        cnt = snapshot["cnt"]
        if (cnt is None) != (self.cnt is None) or (
            cnt is not None and np.shape(cnt) != self.cnt.shape
        ):
            raise SimulationError(
                "snapshot refractory counter does not match this program"
            )
        # In place: the step plan holds views of these rows.
        self.regs[...] = regs
        if cnt is not None:
            self.cnt[...] = cnt
        self.steps = int(snapshot["total_cycles"]) // max(
            1, self.n * self.cycles_per_neuron
        )


class _FoldedColumns(FoldedFlexonNeuron):
    """Neurons ``lo:hi`` of a :class:`FoldedFlexonNeuron` array.

    State, not a pipeline: ``regs`` and ``cnt`` are column views of the
    array's, so ``float_state`` / ``snapshot`` / ``restore`` and fault
    injection see exactly these neurons; the step count (and with it
    ``total_cycles``) and the array-wide proof counters read through;
    only the array steps.
    """

    def __init__(self, array: FoldedFlexonNeuron, lo: int, hi: int):
        self.array = array
        self.program = array.program
        self.membrane_format = array.membrane_format
        self.n = hi - lo
        self.regs = array.regs[:, lo:hi]
        self.cnt = None if array.cnt is None else array.cnt[lo:hi]

    @property
    def steps(self) -> int:
        return self.array.steps

    @steps.setter
    def steps(self, value: int) -> None:
        self.array.steps = value

    points_proved = property(lambda self: self.array.points_proved)
    points_scanned = property(lambda self: self.array.points_scanned)
    points_per_step = property(lambda self: self.array.points_per_step)

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "these neurons are columns of a larger array; step the array"
        )
