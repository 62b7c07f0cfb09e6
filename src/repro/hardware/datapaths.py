"""Per-feature data paths (paper Figure 9).

Each class models one of the ten data paths: its fixed-point arithmetic
(vectorised over an array of neurons) and its arithmetic-unit inventory
(consumed by the Figure 12 cost model). The arithmetic follows the
Table V operand conventions exactly — one multiply, one add, optional
exponentiation per micro-operation — so the baseline Flexon built from
these data paths is bit-identical to the folded microcode interpreter.

All value arguments and returns are *raw* fixed-point int64 arrays in
the constants' format. Saturating multiply/add come from
:mod:`repro.fixedpoint`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.fixedpoint import fx_add, fx_exp, fx_mul, fx_neg, fx_sub
from repro.hardware.constants import NeuronConstants

#: An arithmetic-unit inventory: unit kind -> count.
Inventory = Dict[str, int]


def _merge(*inventories: Inventory) -> Inventory:
    total: Inventory = {}
    for inventory in inventories:
        for unit, count in inventory.items():
            total[unit] = total.get(unit, 0) + count
    return total


class DataPath:
    """Base class carrying the inventory interface."""

    #: Data-path name as used in Figure 12's x-axis.
    name: str = "abstract"

    @classmethod
    def unit_inventory(cls) -> Inventory:
        """Arithmetic units instantiated by one copy of this data path."""
        raise NotImplementedError


class CubExdLidPath(DataPath):
    """Figure 9a: the shared CUB / EXD / LID data path.

    Implements LIF (CUB + EXD) and LLIF (CUB + LID). The LID leak is
    clamped so decay stops at the (zero) resting voltage — the steady
    state of Figure 4 — via a comparator/MUX pair.
    """

    name = "CUB/EXD/LID"

    @staticmethod
    def exd(v: np.ndarray, c: NeuronConstants) -> np.ndarray:
        """Decay contribution ``eps_m' * v``."""
        return fx_mul(v, c.eps_m_c, c.fmt)

    @staticmethod
    def lid(v: np.ndarray, c: NeuronConstants) -> np.ndarray:
        """Linear-decay contribution ``v - min(V_leak, max(v, 0))``."""
        leak = np.minimum(c.v_leak, np.maximum(v, 0))
        return fx_sub(v, leak, c.fmt)

    @staticmethod
    def cub(accumulated_input: np.ndarray, c: NeuronConstants) -> np.ndarray:
        """Current-based contribution: the gated input itself."""
        return accumulated_input

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"mul": 1, "add": 2, "cmp": 1, "mux": 2}


class CobePath(DataPath):
    """Figure 9b: exponential conductance, one instance per synapse type.

    ``g_i = eps_g,i' * g_i + I_i``; contributes ``g_i`` (unless REV
    takes over the contribution).
    """

    name = "COBE"

    @staticmethod
    def update(
        g: np.ndarray, gated_input: np.ndarray, type_index: int, c: NeuronConstants
    ) -> np.ndarray:
        decayed = fx_mul(g, c.eps_g_c[type_index], c.fmt)
        return fx_add(decayed, gated_input, c.fmt)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"mul": 1, "add": 1}


class CobaPath(DataPath):
    """Figure 9c: alpha-function conductance (embeds the COBE path).

    ``y_i = eps_g,i' * y_i + I_i``; ``tmp = (e * eps_g,i) * y_i``;
    ``g_i = eps_g,i' * g_i + tmp``.
    """

    name = "COBA"

    @staticmethod
    def update(
        g: np.ndarray,
        y: np.ndarray,
        gated_input: np.ndarray,
        type_index: int,
        c: NeuronConstants,
    ) -> Tuple[np.ndarray, np.ndarray]:
        y_new = fx_add(
            fx_mul(y, c.eps_g_c[type_index], c.fmt), gated_input, c.fmt
        )
        ramp = fx_mul(y_new, c.e_eps_g[type_index], c.fmt)
        g_new = fx_add(fx_mul(g, c.eps_g_c[type_index], c.fmt), ramp, c.fmt)
        return g_new, y_new

    @classmethod
    def unit_inventory(cls) -> Inventory:
        # The embedded COBE path plus the y update and the ramp multiply.
        return _merge(CobePath.unit_inventory(), {"mul": 2, "add": 1})


class RevPath(DataPath):
    """Figure 9d: reversal-voltage scaling of a conductance.

    ``tmp = -v + v_g,i``; contribution ``tmp * g_i``.
    """

    name = "REV"

    @staticmethod
    def contribution(
        v: np.ndarray, g: np.ndarray, type_index: int, c: NeuronConstants
    ) -> np.ndarray:
        tmp = fx_add(fx_neg(v, c.fmt), c.v_g[type_index], c.fmt)
        return fx_mul(tmp, g, c.fmt)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"mul": 1, "add": 1}


class QdiPath(DataPath):
    """Figure 9e: quadratic spike initiation.

    ``tmp = eps_m * v + (-eps_m * v_c)``; contribution ``tmp * v``
    (two uses of the multiplier — the folding example of Section V-B).
    """

    name = "QDI"

    @staticmethod
    def contribution(v: np.ndarray, c: NeuronConstants) -> np.ndarray:
        tmp = fx_add(fx_mul(v, c.eps_m, c.fmt), c.neg_eps_m_v_c, c.fmt)
        return fx_mul(tmp, v, c.fmt)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"mul": 2, "add": 1}


class ExiPath(DataPath):
    """Figure 9f: exponential spike initiation.

    ``e = exp(v / delta_T - theta / delta_T)``;
    contribution ``(delta_T * eps_m) * e``. The exp unit uses the
    Schraudolph approximation (Section IV-B1).
    """

    name = "EXI"

    @staticmethod
    def contribution(v: np.ndarray, c: NeuronConstants) -> np.ndarray:
        exponent = fx_add(
            fx_mul(v, c.inv_delta_t, c.fmt), c.neg_theta_inv_delta_t, c.fmt
        )
        exp_out = fx_exp(exponent, c.fmt)
        return fx_mul(exp_out, c.delta_t_eps_m, c.fmt)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        # Two multiplies, the exponent and output adds, and the exp
        # unit itself — the priciest path (Section IV-B1 pipelines it).
        return {"mul": 2, "add": 2, "exp": 1}


class AdtPath(DataPath):
    """Figure 9g: adaptation decay — ``w = eps_w' * w``; contributes w.

    The paper splits this path in two sub-paths reused by SBT and RR;
    the decay multiply here is that shared sub-path.
    """

    name = "ADT"

    @staticmethod
    def decay(w: np.ndarray, c: NeuronConstants) -> np.ndarray:
        return fx_mul(w, c.eps_w_c, c.fmt)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"mul": 1, "add": 1}


class SbtPath(DataPath):
    """Figure 9h: subthreshold oscillation (embeds the ADT decay).

    ``tmp = (eps_m * a) * v + (-eps_m * a * v_w)``;
    ``w = eps_w' * w + tmp``; contributes w.
    """

    name = "SBT"

    @staticmethod
    def update(
        w: np.ndarray, v: np.ndarray, c: NeuronConstants
    ) -> np.ndarray:
        tmp = fx_add(fx_mul(v, c.eps_m_a, c.fmt), c.neg_eps_m_a_v_w, c.fmt)
        return fx_add(AdtPath.decay(w, c), tmp, c.fmt)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return _merge(AdtPath.unit_inventory(), {"mul": 1, "add": 1})


class ArPath(DataPath):
    """Figure 9i: absolute refractory counter.

    A saturating down-counter gates the accumulated input while
    positive (Equation 7). No multiplier — the cheapest data path.
    """

    name = "AR"

    @staticmethod
    def gate(inputs: np.ndarray, cnt: np.ndarray, out=None) -> np.ndarray:
        """Zero the input rows of neurons still in their window."""
        if out is None:
            out = inputs.copy()
        else:
            np.copyto(out, inputs)
        np.copyto(out, 0, where=cnt > 0)
        return out

    @staticmethod
    def tick(cnt: np.ndarray, out=None) -> np.ndarray:
        """One saturating decrement of the counters."""
        out = np.subtract(cnt, 1, out=out)
        return np.maximum(out, 0, out=out)

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"add": 1, "cmp": 2, "mux": 1}


class RrPath(DataPath):
    """Figure 9j: relative refractory (Equation 8).

    Decays both ``w`` and ``r`` (reusing the ADT decay sub-path) and
    contributes two reversal-coupled currents:
    ``w * (v_ar - v)`` and ``r * (v_rr - v)``.
    """

    name = "RR"

    @staticmethod
    def update(
        w: np.ndarray, r: np.ndarray, v: np.ndarray, c: NeuronConstants
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (w_new, r_new, contribution)."""
        w_new = AdtPath.decay(w, c)
        tmp_w = fx_add(fx_neg(v, c.fmt), c.v_ar, c.fmt)
        contrib_w = fx_mul(tmp_w, w_new, c.fmt)
        r_new = fx_mul(r, c.eps_r_c, c.fmt)
        tmp_r = fx_add(fx_neg(v, c.fmt), c.v_rr, c.fmt)
        contrib_r = fx_mul(tmp_r, r_new, c.fmt)
        contribution = fx_add(contrib_w, contrib_r, c.fmt)
        return w_new, r_new, contribution

    @classmethod
    def unit_inventory(cls) -> Inventory:
        return {"mul": 4, "add": 3}


#: The ten data paths in Figure 12's presentation order.
ALL_DATAPATHS = (
    CubExdLidPath,
    CobePath,
    CobaPath,
    RevPath,
    QdiPath,
    ExiPath,
    AdtPath,
    SbtPath,
    ArPath,
    RrPath,
)
