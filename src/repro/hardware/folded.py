"""Spatially folded Flexon: microcoded two-stage pipeline (Figure 11).

Where the baseline Flexon instantiates every data path, the folded
design shares one multiplier, one adder and one exponential unit, and
schedules each feature's sub-operations over them with control signals
(Section V-B). This model executes assembled
:class:`~repro.hardware.microcode.Microprogram` objects:

* **stage 1** executes the control signals — each is one pass through
  the shared MUL-ADD(-EXP) with operands selected per Table IV — and
  accumulates contributions into the membrane accumulator v';
* **stage 2** checks the firing condition, applies resets and
  spike-triggered jumps, ticks the refractory counter, and writes the
  (truncated) membrane value back.

The pipeline issues one signal per cycle; the array model need not. Each
program is lowered once per neuron array into :func:`waves` — groups of
signals with no hazard among them — and a wave runs as one numpy call
per pipeline stage over stacked rows (compile once, step many). What a
signal computes, and where it saturates, is its own either way.

Folding moves no state: the array is a
:class:`~repro.hardware.flexon.FlexonNeuron` (its register file, views,
read-out and checkpoints) with its own step, which the baseline's step
checks bit for bit (the equivalence Table V's schedules must
guarantee). The per-neuron occupancy (``signals + 1`` cycles) feeds the
Figure 13 latency model — QDI's structural hazard on the single
multiplier costs it an extra cycle, as Section V-B notes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    ControlSignal,
    STATE_V,
    STATE_W,
)
from repro.hardware.flexon import FlexonNeuron
from repro.hardware.microcode import Microprogram


#: ADD-port operand groups in the order a wave executes and lays them out.
_ADD_KINDS = (BOperand.INPUT, BOperand.CONSTANT, BOperand.TMP, BOperand.LEAK)


def waves(signals: Sequence[ControlSignal]) -> Tuple[Tuple[int, ...], ...]:
    """Group a program's control signals, by index, into hazard-free waves.

    A wave reads registers at its start and writes them at its end. So a
    signal joins the first wave after every wave that produces a value it
    reads — the ``tmp`` of the signal before it, the last earlier write
    of its register ``s`` — and no earlier than any wave in which an
    earlier signal reads the register it writes. A signal always reads
    its own register, so a register is written at most once per wave.
    """
    level: List[int] = []
    last_write: Dict[int, int] = {}
    last_read: Dict[int, int] = {}
    for i, signal in enumerate(signals):
        s = signal.s
        at = last_write.get(s, -1) + 1
        if i and (signal.a == AOperand.TMP or signal.b == BOperand.TMP):
            at = max(at, level[i - 1] + 1)
        if signal.s_wr:
            at = max(at, last_read.get(s, 0))
            last_write[s] = at
        last_read[s] = max(last_read.get(s, 0), at)
        level.append(at)
    return tuple(
        tuple(i for i, at in enumerate(level) if at == wave)
        for wave in range(max(level, default=-1) + 1)
    )


def _key(indices: Sequence[int], broadcast: bool = True):
    """Rows ``indices`` as a basic slice where one exists — consecutive
    rows, or (for an elementwise operand, which then broadcasts) one row
    repeated — else as an index array."""
    first = indices[0]
    if broadcast and all(i == first for i in indices):
        return slice(first, first + 1)
    if list(indices) == list(range(first, first + len(indices))):
        return slice(first, first + len(indices))
    return np.array(indices, dtype=np.intp)


class _Rows:
    """Rows of a persistent array as one operand block: a view where
    :func:`_key` finds a slice, else gathered each step into ``into`` or
    a scratch block of its own."""

    __slots__ = ("base", "index", "block")

    def __init__(self, base, indices, into=None, broadcast=True):
        key = _key(indices, broadcast)
        self.base = base
        if isinstance(key, slice):
            self.index, self.block = None, base[key]
        else:
            self.index = key
            if into is None:
                into = np.empty((len(key),) + base.shape[1:], base.dtype)
            self.block = into

    def fill(self) -> np.ndarray:
        if self.index is not None:
            self.base.take(self.index, axis=0, out=self.block, mode="clip")
        return self.block


def _rank(signal: ControlSignal) -> int:
    """Where a product row goes in its wave: in the order the ADD groups
    read them, then the pass-through results with the v' terms last, so
    they abut the next wave's and the v' reduce reads one slice."""
    if signal.b == BOperand.ZERO:
        return len(_ADD_KINDS) + bool(signal.v_acc)
    return _ADD_KINDS.index(signal.b)


def _saturate_row(row: np.ndarray, fmt: FixedFormat, lo: int, hi: int, points=1):
    """Scan an unproved row once per saturation point it stands for (each
    scan sees the unclipped values, as each point did), clip it in place,
    and return the clipped enclosure."""
    for _ in range(points):
        clipped, new_lo, new_hi = fx_saturate_enclosed(row, fmt, lo, hi)
    if clipped is not row:
        row[...] = clipped
    return new_lo, new_hi


class FoldedFlexonNeuron(FlexonNeuron):
    """A vectorised array of folded Flexon neurons running one program.

    The register file, its column views, read-out and checkpoints are
    :class:`~repro.hardware.flexon.FlexonNeuron`'s; this array brings
    its own step. The program is lowered **once**, at construction, into
    :func:`waves` of stacked numpy calls over preallocated int64 rows
    (see :meth:`_lower`) that hold views of ``regs``.
    """

    def __init__(
        self,
        program: Microprogram,
        n: int,
        membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
    ):
        super().__init__(program.features, program.constants, n, membrane_format)
        self.program = program
        #: Saturation points an enclosure proved in range / had to scan,
        #: array-wide; diagnostics, not part of :meth:`snapshot`.
        self.points_proved = 0
        self.points_scanned = 0
        self._gated = np.empty((program.constants.n_synapse_types, n), np.int64)
        # Sets ``_rows_read`` / ``_read`` / ``_spans`` (see :meth:`_lower`).
        self._waves = self._lower(program)
        # Stage 1's saturation points per step: one per MUL, per ADD and
        # per v' accumulation.
        self._stage1_points = sum(
            1 + (signal.b != BOperand.ZERO) + bool(signal.v_acc)
            for signal in program.signals
        )
        # Spike-triggered jumps; signs mirror FlexonNeuron (RR
        # conductances grow on fire). w and r are adjacent registers, so
        # one masked add covers both.
        c = program.constants
        owner = program.features.w_owner
        if owner is Feature.RR:
            jumps = (c.b, c.q_r)
        elif owner is not None:
            jumps = (-c.b,)
        else:
            jumps = ()
        self._jump_rows = self.regs[STATE_W : STATE_W + len(jumps)]
        self._jumps = np.array(jumps, dtype=np.int64).reshape(-1, 1) if jumps else None

    @property
    def cycles_per_neuron(self) -> int:
        """Pipeline occupancy of one neuron update."""
        return self.program.cycles_per_neuron

    @property
    def points_per_step(self) -> int:
        """Saturation points of one step: stage 1's plus the write-back."""
        return self._stage1_points + (self.membrane_format is not None)

    def _lower(self, program: Microprogram) -> tuple:
        """Lay each wave's values out as rows of one int64 block, ``_vals``,
        and bind the wave's stage calls to them.

        Every signal's result has a row: its ADD row; with the ADD port
        at zero, its product row (shared by the signals of a wave that
        multiply one register by one constant); or, for an exponentiated
        product, a row of its own. Row 0 stays zero: the ``tmp`` of the
        step's first signal. ``_enc`` holds a Python-int enclosure per
        row, then one per ADD operand that has no row.

        Every register the program reads is copied once per step into
        ``_read`` (rows ``_rows_read``): first wave 0's MUL operands, in
        the order they multiply, so wave 0 reads them as one slice, then
        the other registers read. The step scans the enclosure spans
        from the same block, each register once (``_spans``: the runs of
        rows holding a register's first copy, of ``_span_regs``).

        A wave is ``(const_mul, tmp_mul, prod, products, adds, exps,
        writes, spans)``: the MUL calls by operand kind, the product rows
        to shift, each product's enclosure recipe ``(row, constant, s,
        tmp row, points)``, the ADD groups ``(kind, products, operand,
        rows, members)``, the exponentiated rows, the register writes as
        ``(register rows, value rows)`` runs and the span updates.
        """
        signals = program.signals
        n, c, regs = self.n, program.constants, self.regs
        # At most a result row and a product row per signal; rows a
        # program leaves unused are never written, so never paged in.
        self._vals = vals = np.zeros((1 + 2 * len(signals), n), dtype=np.int64)
        self._enc = enc = [(0, 0)] * len(vals)
        operands: Dict[object, int] = {}

        def operand(key, lo_hi) -> int:
            """The ``_enc`` index of an ADD operand without a row."""
            if key not in operands:
                operands[key] = len(enc)
                enc.append(lo_hi)
            return operands[key]

        self._input_enc = operand("input", (0, 0))
        out = [0] * len(signals)  # each signal's result row
        product = [0] * len(signals)  # each signal's product row
        free = 1

        def tmp_of(i: int) -> int:
            return out[i - 1] if i else 0

        self._rows_read: Tuple[int, ...] = ()
        self._read = np.empty((0, n), dtype=np.int64)
        self._spans: Tuple[np.ndarray, ...] = ()
        self._span_regs: Tuple[int, ...] = ()
        bound = []
        for number, members in enumerate(waves(signals)):
            groups = []
            for kind in _ADD_KINDS:
                group = [i for i in members if signals[i].b == kind]
                if group:
                    groups.append((kind, group))
                    for i in group:
                        out[i], free = free, free + 1
            for i in members:
                if signals[i].exp and signals[i].b == BOperand.ZERO:
                    out[i], free = free, free + 1
            # One product per constant and register, one per tmp MUL;
            # constant products first, each kind in ``_rank`` order.
            users: Dict[object, List[int]] = {}
            for i in members:
                signal = signals[i]
                if signal.a == AOperand.CONSTANT:
                    key = (int(program.mul_constants[signal.ca]), signal.s)
                else:
                    key = i
                users.setdefault(key, []).append(i)
            keys = sorted(
                users,
                key=lambda k: (isinstance(k, int), _rank(signals[users[k][0]])),
            )
            first = free
            for key in keys:
                for i in users[key]:
                    product[i] = free
                    if signals[i].b == BOperand.ZERO and not signals[i].exp:
                        out[i] = free
                free += 1
            const_keys = [key for key in keys if not isinstance(key, int)]
            tmp_keys = [key for key in keys if isinstance(key, int)]
            split = first + len(const_keys)
            mul_regs = [s for _, s in const_keys] + [signals[i].s for i in tmp_keys]
            if number == 0:
                read = {signal.s for signal in signals} - set(mul_regs)
                self._rows_read = rows = tuple(mul_regs + sorted(read))
                self._read = np.empty((len(rows), n), dtype=np.int64)
                firsts = [j for j, s in enumerate(rows) if s not in rows[:j]]
                runs: List[List[int]] = []
                for j in firsts:
                    if runs and runs[-1][1] == j:
                        runs[-1][1] = j + 1
                    else:
                        runs.append([j, j + 1])
                self._spans = tuple(self._read[a:b] for a, b in runs)
                self._span_regs = tuple(rows[j] for j in firsts)
                # ``_read``'s first rows are this wave's MUL operands.
                source, mul_regs = self._read, range(len(mul_regs))
            else:
                source = regs
            const_mul = tmp_mul = None
            if const_keys:
                into = vals[first:split]
                # The constants as full rows: numpy's int64 multiply runs
                # about twice as fast with no stride-0 operand.
                constants = np.array([k for k, _ in const_keys], dtype=np.int64)
                const_mul = (
                    np.repeat(constants[:, None], n, axis=1),
                    _Rows(source, mul_regs[: len(const_keys)], into),
                    into,
                )
            if tmp_keys:
                into = vals[split:free]
                tmp_mul = (
                    _Rows(vals, [tmp_of(i) for i in tmp_keys]),
                    _Rows(source, mul_regs[len(const_keys) :], into),
                    into,
                )
            products = tuple(
                (product[key], None, signals[key].s, tmp_of(key), 1)
                if isinstance(key, int)
                else (product[users[key][0]], key[0], key[1], None, len(users[key]))
                for key in keys
            )
            adds = []
            for kind, group in groups:
                rows = vals[out[group[0]] : out[group[-1]] + 1]
                if kind is BOperand.INPUT:
                    add = _key([signals[i].syn_type for i in group])
                    enc_of = [self._input_enc] * len(group)
                elif kind is BOperand.CONSTANT:
                    ks = [int(program.add_constants[signals[i].cb]) for i in group]
                    add = np.array(ks, dtype=np.int64)[:, None]
                    enc_of = [operand(("k", k), (k, k)) for k in ks]
                elif kind is BOperand.TMP:
                    add = _Rows(vals, [tmp_of(i) for i in group])
                    enc_of = [tmp_of(i) for i in group]
                else:  # LEAK
                    add = (
                        _Rows(regs, [signals[i].s for i in group]),
                        np.empty(rows.shape, dtype=np.int64),
                    )
                    leak = (-max(c.v_leak, 0), -min(c.v_leak, 0))
                    enc_of = [operand("leak", leak)] * len(group)
                members_of = tuple(
                    (product[i], a, out[i]) for i, a in zip(group, enc_of)
                )
                prods = _Rows(vals, [product[i] for i in group])
                adds.append((kind, prods, add, rows, members_of))
            exp = [i for i in members if signals[i].exp]
            exps = None
            if exp:
                sources = [
                    product[i] if signals[i].b == BOperand.ZERO else out[i]
                    for i in exp
                ]
                exps = (
                    _Rows(vals, sources, broadcast=False),
                    _key([out[i] for i in exp], broadcast=False),
                    tuple(zip(sources, (out[i] for i in exp))),
                )
            # Register writes as runs of adjacent registers and rows.
            writes: List[List[int]] = []
            for s, row in sorted(
                (signals[i].s, out[i]) for i in members if signals[i].s_wr
            ):
                if writes and writes[-1][1:] == [s, row]:
                    writes[-1][1:] = [s + 1, row + 1]
                else:
                    writes.append([s, s + 1, row + 1])
            bound.append(
                (
                    const_mul,
                    tmp_mul,
                    vals[first:free],
                    products,
                    tuple(adds),
                    exps,
                    tuple(
                        (regs[s0:s1], vals[r1 - (s1 - s0) : r1])
                        for s0, s1, r1 in writes
                    ),
                    tuple(
                        (signals[i].s, out[i]) for i in members if signals[i].s_wr
                    ),
                )
            )
        # v' terms in program order; the proved sum reads them in any order.
        self._acc = tuple(out[i] for i, signal in enumerate(signals) if signal.v_acc)
        self._acc_rows = (
            _Rows(vals, sorted(self._acc), broadcast=False) if self._acc else None
        )
        return tuple(bound)

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Advance every neuron one time step; return the fired mask."""
        if raw_inputs.shape != self._input_shape:
            raise self._refuse(raw_inputs)
        c = self.program.constants
        fmt = c.fmt
        cnt = self.cnt
        if cnt is not None:
            gated = dp.ArPath.gate(raw_inputs, cnt, out=self._gated)
        else:
            gated = raw_inputs

        # -- enclosures ------------------------------------------------------
        # A Python-int ``[lo, hi]`` rides beside every row below (``enc``).
        # A saturation point whose enclosure lies inside its format is
        # proved in range: its row is not scanned, and the step records
        # all such points at once (``fx_record_proved``). Every other
        # point scans its row on its own (``_saturate_row``).
        # The rows and inputs this step reads are scanned here, every
        # step: ``restore`` and fault injection write ``regs`` through
        # views, so a range carried over would be stale. Wave 0
        # multiplies the same copy.
        if self.n:
            # ``mode="clip"`` lets ``take`` write ``out`` unbuffered.
            self.regs.take(self._rows_read, axis=0, out=self._read, mode="clip")
            lows, highs = [], []
            for rows in self._spans:
                lows += rows.min(axis=1).tolist()
                highs += rows.max(axis=1).tolist()
            span = dict(zip(self._span_regs, zip(lows, highs)))
            inputs = (int(gated.min()), int(gated.max()))
        else:  # no values: any enclosure holds
            span = dict.fromkeys(self._span_regs, (0, 0))
            inputs = (0, 0)
        enc, vals = self._enc, self._vals
        enc[self._input_enc] = inputs
        fmt_min, fmt_max = fmt.raw_min, fmt.raw_max
        frac_bits = fmt.frac_bits
        scanned = 0

        # -- stage 1: the waves ----------------------------------------------
        for const_mul, tmp_mul, prod, products, adds, exps, writes, spans in self._waves:
            # MUL, one call per operand kind, then one shift.
            if const_mul is not None:
                constants, state, into = const_mul
                np.multiply(constants, state.fill(), out=into)
            if tmp_mul is not None:
                tmp, state, into = tmp_mul
                np.multiply(tmp.fill(), state.fill(), out=into)
            np.right_shift(prod, frac_bits, out=prod)
            for row, k, s, tmp, points in products:
                s_lo, s_hi = span[s]
                if k is None:
                    t_lo, t_hi = enc[tmp]
                    corners = (t_lo * s_lo, t_lo * s_hi, t_hi * s_lo, t_hi * s_hi)
                    lo, hi = min(corners), max(corners)
                elif k < 0:
                    lo, hi = k * s_hi, k * s_lo
                else:
                    lo, hi = k * s_lo, k * s_hi
                # The shift floors, so it is monotone: the ends map exactly.
                lo, hi = lo >> frac_bits, hi >> frac_bits
                if lo < fmt_min or hi > fmt_max:
                    lo, hi = _saturate_row(vals[row], fmt, lo, hi, points)
                    scanned += points
                enc[row] = (lo, hi)
            # ADD, one call per operand kind.
            for kind, prods, add, rows, members in adds:
                if kind is BOperand.INPUT:
                    np.add(prods.fill(), gated[add], out=rows)
                elif kind is BOperand.CONSTANT:
                    np.add(prods.fill(), add, out=rows)
                elif kind is BOperand.TMP:
                    np.add(prods.fill(), add.fill(), out=rows)
                else:  # LEAK: clamped -V_leak of the selected state registers
                    state, clamp = add
                    np.maximum(state.fill(), 0, out=clamp)
                    np.minimum(clamp, c.v_leak, out=clamp)
                    np.subtract(prods.fill(), clamp, out=rows)
                for row, a, dst in members:
                    lo, hi = enc[row]
                    a_lo, a_hi = enc[a]
                    lo, hi = lo + a_lo, hi + a_hi
                    if lo < fmt_min or hi > fmt_max:
                        lo, hi = _saturate_row(vals[dst], fmt, lo, hi)
                        scanned += 1
                    enc[dst] = (lo, hi)
            if exps is not None:
                sources, dst, members = exps
                vals[dst] = fx_exp(sources.fill(), fmt)
                for row, exp_row in members:
                    enc[exp_row] = fx_exp_enclosure(*enc[row], fmt)
            for state, rows in writes:
                np.copyto(state, rows)
            for s, row in spans:
                span[s] = enc[row]

        # -- v': one reduce when every partial sum is proved ----------------
        # Integer adds that never saturate give the same bits in any
        # order; otherwise the terms are added in program order, each
        # unproved partial sum saturated on its own.
        acc = v_row = self.regs[STATE_V]
        acc_lo = acc_hi = 0
        proved = True
        for row in self._acc:
            lo, hi = enc[row]
            acc_lo, acc_hi = acc_lo + lo, acc_hi + hi
            if acc_lo < fmt_min or acc_hi > fmt_max:
                proved = False
                break
        if proved and self._acc_rows is not None:
            np.add.reduce(self._acc_rows.fill(), axis=0, out=v_row)
        else:
            v_row.fill(0)
        if not proved:
            acc_lo = acc_hi = 0
            for row in self._acc:
                lo, hi = enc[row]
                np.add(acc, vals[row], out=v_row)
                acc, acc_lo, acc_hi = v_row, acc_lo + lo, acc_hi + hi
                if acc_lo < fmt_min or acc_hi > fmt_max:
                    acc, acc_lo, acc_hi = fx_saturate_enclosed(
                        v_row, fmt, acc_lo, acc_hi
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
        if acc is not v_row:
            v_row[...] = acc
        if self._jumps is not None:
            rows = self._jump_rows
            np.add(rows, self._jumps, out=rows, where=fired)
        if cnt is not None:
            dp.ArPath.tick(cnt, out=cnt)
            np.copyto(cnt, c.cnt_max, where=fired)
        self.steps += 1
        return fired
