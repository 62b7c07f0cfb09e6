"""Microprogram assembly for spatially folded Flexon (paper Table V).

The assembler turns a feature combination plus prepared constants into
the sequence of control signals that folded Flexon executes each time
step. The op ordering is canonical and shared with the baseline
Flexon's data-path evaluation order, which is what makes the two
implementations bit-identical:

1. membrane decay (EXD or LID), with CUB inputs riding the ADD port;
2. per synapse type: conductance update (COBE or COBA), then the REV
   reversal coupling when enabled;
3. spike-triggered current (RR, or SBT, or ADT);
4. spike initiation (QDI or EXI) — last, because the Table V EXI
   sequence clobbers the ``v`` register with the exp-unit output
   (harmless only once nothing later reads the true membrane value).

Cycle accounting follows Section V-B: a model needing ``k`` control
signals occupies the shared arithmetic units for ``k`` cycles per
neuron, plus one write-back cycle in the second pipeline stage; e.g.
LIF (CUB + EXD) is a single signal and QDI adds a structural hazard on
the single multiplier, hence its extra cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import MicrocodeError
from repro.features import Feature, FeatureSet
from repro.hardware.constants import NeuronConstants
from repro.hardware.control import (
    AOperand,
    BOperand,
    ControlSignal,
    STATE_G,
    STATE_R,
    STATE_V,
    STATE_W,
    STATE_Y,
)

#: Hardware limits from Table IV.
MAX_MUL_CONSTANTS = 16
MAX_ADD_CONSTANTS = 8


@dataclass
class Microprogram:
    """An assembled per-model program plus its constant buffers."""

    features: FeatureSet
    constants: NeuronConstants
    signals: Tuple[ControlSignal, ...]
    mul_constants: Tuple[int, ...]  #: raw values indexed by ``ca``
    add_constants: Tuple[int, ...]  #: raw values indexed by ``cb``

    @property
    def n_signals(self) -> int:
        """Control signals per neuron per time step."""
        return len(self.signals)

    @property
    def cycles_per_neuron(self) -> int:
        """Pipeline occupancy per neuron: signals + 1 write-back cycle."""
        return self.n_signals + 1

    def listing(self) -> str:
        """Human-readable Table V-style listing."""
        lines = [f"; {self.features!r}: {self.n_signals} signals"]
        lines.extend(
            f"  {i}: {signal.describe()}"
            for i, signal in enumerate(self.signals)
        )
        return "\n".join(lines)


class _ConstantPool:
    """Deduplicating allocator for a constant buffer."""

    def __init__(self, limit: int, kind: str):
        self.limit = limit
        self.kind = kind
        self.values: List[int] = []
        self._index: Dict[int, int] = {}

    def alloc(self, raw: int) -> int:
        if raw in self._index:
            return self._index[raw]
        if len(self.values) >= self.limit:
            raise MicrocodeError(
                f"{self.kind} constant buffer exceeded ({self.limit} entries)"
            )
        index = len(self.values)
        self.values.append(raw)
        self._index[raw] = index
        return index


def assemble(features: FeatureSet, constants: NeuronConstants) -> Microprogram:
    """Assemble the Table V microprogram for a feature combination."""
    c = constants
    muls = _ConstantPool(MAX_MUL_CONSTANTS, "MUL")
    adds = _ConstantPool(MAX_ADD_CONSTANTS, "ADD")
    signals: List[ControlSignal] = []
    n_types = c.n_synapse_types
    zero = 0
    has_cub = features.accumulation_kernel is Feature.CUB

    # -- 1. membrane decay (+ CUB input rides the ADD port) ---------------
    if Feature.EXD in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_m_c),
                b=BOperand.INPUT if has_cub else BOperand.ZERO,
                syn_type=0,
                s=STATE_V,
                v_acc=True,
                note="v' += eps_m' * v" + (" + I" if has_cub else ""),
            )
        )
    else:  # LID
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.one),
                b=BOperand.INPUT if has_cub else BOperand.ZERO,
                syn_type=0,
                s=STATE_V,
                v_acc=True,
                note="v' += v" + (" + I" if has_cub else ""),
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(zero),
                b=BOperand.LEAK,
                s=STATE_V,
                v_acc=True,
                note="v' += -min(V_leak, max(v, 0))",
            )
        )
    if has_cub:
        for i in range(1, n_types):
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(zero),
                    b=BOperand.INPUT,
                    syn_type=i,
                    s=STATE_V,
                    v_acc=True,
                    note=f"v' += I[{i}]",
                )
            )

    # -- 2. conductance kernels and reversal coupling ----------------------
    use_rev = Feature.REV in features
    for i in range(n_types):
        if Feature.COBA in features:
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.eps_g_c[i]),
                    b=BOperand.INPUT,
                    syn_type=i,
                    s=STATE_Y[i],
                    s_wr=True,
                    note=f"y{i} = eps_g' * y{i} + I[{i}]",
                )
            )
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.e_eps_g[i]),
                    b=BOperand.ZERO,
                    s=STATE_Y[i],
                    note=f"tmp = (e*eps_g) * y{i}",
                )
            )
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.eps_g_c[i]),
                    b=BOperand.TMP,
                    s=STATE_G[i],
                    s_wr=True,
                    v_acc=not use_rev,
                    note=f"g{i} = eps_g' * g{i} + tmp"
                    + ("" if use_rev else "; v' += g"),
                )
            )
        elif Feature.COBE in features:
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.eps_g_c[i]),
                    b=BOperand.INPUT,
                    syn_type=i,
                    s=STATE_G[i],
                    s_wr=True,
                    v_acc=not use_rev,
                    note=f"g{i} = eps_g' * g{i} + I[{i}]"
                    + ("" if use_rev else "; v' += g"),
                )
            )
        if use_rev and features.uses_conductance:
            signals.append(
                ControlSignal(
                    a=AOperand.CONSTANT,
                    ca=muls.alloc(c.neg_one),
                    b=BOperand.CONSTANT,
                    cb=adds.alloc(c.v_g[i]),
                    s=STATE_V,
                    note=f"tmp = -v + v_g[{i}]",
                )
            )
            signals.append(
                ControlSignal(
                    a=AOperand.TMP,
                    b=BOperand.ZERO,
                    s=STATE_G[i],
                    v_acc=True,
                    note=f"v' += tmp * g{i}",
                )
            )

    # -- 3. spike-triggered current -----------------------------------------
    owner = features.w_owner
    if owner is Feature.RR:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_w_c),
                s=STATE_W,
                s_wr=True,
                note="w = eps_w' * w",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.neg_one),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.v_ar),
                s=STATE_V,
                note="tmp = -v + v_ar",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.TMP, s=STATE_W, v_acc=True, note="v' += tmp * w"
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_r_c),
                s=STATE_R,
                s_wr=True,
                note="r = eps_r' * r",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.neg_one),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.v_rr),
                s=STATE_V,
                note="tmp = -v + v_rr",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.TMP, s=STATE_R, v_acc=True, note="v' += tmp * r"
            )
        )
    elif owner is Feature.SBT:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_m_a),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.neg_eps_m_a_v_w),
                s=STATE_V,
                note="tmp = (eps_m a) * v - eps_m a v_w",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_w_c),
                b=BOperand.TMP,
                s=STATE_W,
                s_wr=True,
                v_acc=True,
                note="w = eps_w' * w + tmp; v' += w",
            )
        )
    elif owner is Feature.ADT:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_w_c),
                s=STATE_W,
                s_wr=True,
                v_acc=True,
                note="w = eps_w' * w; v' += w",
            )
        )

    # -- 4. spike initiation --------------------------------------------------
    if Feature.QDI in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.eps_m),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.neg_eps_m_v_c),
                s=STATE_V,
                note="tmp = eps_m * v - eps_m v_c",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.TMP, s=STATE_V, v_acc=True, note="v' += tmp * v"
            )
        )
    elif Feature.EXI in features:
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.inv_delta_t),
                b=BOperand.CONSTANT,
                cb=adds.alloc(c.neg_theta_inv_delta_t),
                s=STATE_V,
                exp=True,
                s_wr=True,
                note="v = exp(v/delta_T - theta/delta_T)",
            )
        )
        signals.append(
            ControlSignal(
                a=AOperand.CONSTANT,
                ca=muls.alloc(c.delta_t_eps_m),
                s=STATE_V,
                v_acc=True,
                note="v' += (delta_T eps_m) * v",
            )
        )

    return Microprogram(
        features=features,
        constants=c,
        signals=tuple(signals),
        mul_constants=tuple(muls.values),
        add_constants=tuple(adds.values),
    )
