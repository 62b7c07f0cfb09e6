"""Unit inventories: what each design instantiates.

The per-feature inventories come straight from the data-path classes
(:mod:`repro.hardware.datapaths`); this module adds the glue that turns
them into complete designs:

* **baseline Flexon** (Figure 10) replicates the conductance and
  reversal paths per synapse type, keeps a single spike-initiation pair
  (QDI + EXI behind a MUX), shares the ADT decay sub-path between SBT
  and RR (Section IV-B2), and adds the adder tree, firing comparator,
  gating latches and MUXes;
* **folded Flexon** (Figure 11) keeps exactly one multiplier, one
  adder and one exponential unit, plus operand MUXes, the tmp/v'
  registers, pipeline latches, and the control decoder.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.datapaths import (
    ALL_DATAPATHS,
    ArPath,
    CobaPath,
    CubExdLidPath,
    ExiPath,
    Inventory,
    QdiPath,
    RevPath,
    SbtPath,
    merge_inventories,
)


def _scale(inventory: Inventory, factor: int) -> Inventory:
    return {unit: count * factor for unit, count in inventory.items()}


def datapath_inventories() -> Dict[str, Inventory]:
    """Per-feature data-path inventories (Figure 12's left group).

    Each standalone path also carries one 32-bit input gating latch,
    the power-down mechanism of Figure 10.
    """
    out: Dict[str, Inventory] = {}
    for path in ALL_DATAPATHS:
        inventory = merge_inventories(path.unit_inventory(), {"reg": 1})
        if path is ArPath:
            inventory = merge_inventories(inventory, {"cnt": 1})
        out[path.name] = inventory
    return out


def flexon_inventory(n_synapse_types: int = 2) -> Inventory:
    """The complete baseline Flexon neuron (Figure 10)."""
    per_type = merge_inventories(
        # COBA embeds COBE, so one COBA instance provides both kernels.
        CobaPath.unit_inventory(),
        RevPath.unit_inventory(),
        {"mux": 1, "reg": 1},  # kernel-select MUX + gating latch
    )
    spike_triggered = merge_inventories(
        # SBT embeds the ADT decay sub-path; RR reuses it and adds the
        # r decay plus the two reversal couplings (Section IV-B2).
        SbtPath.unit_inventory(),
        {"mul": 3, "add": 2},  # RR's additions beyond the shared sub-path
        {"mux": 1, "reg": 2},
    )
    spike_initiation = merge_inventories(
        QdiPath.unit_inventory(),
        ExiPath.unit_inventory(),
        {"mux": 1, "reg": 2},  # QDI/EXI select; EXI critical-path latch
    )
    glue = {
        "add": 7,  # adder tree over the per-feature contributions
        "cmp": 1,  # firing comparator
        "mux": 3,  # reset MUX, decay select, accumulation select
        "reg": 6,  # input/output latches
    }
    return merge_inventories(
        CubExdLidPath.unit_inventory(),
        _scale(per_type, n_synapse_types),
        spike_triggered,
        spike_initiation,
        ArPath.unit_inventory(),
        {"cnt": 1},
        glue,
    )


def folded_inventory() -> Inventory:
    """The spatially folded Flexon neuron (Figure 11)."""
    return {
        "mul": 1,
        "add": 2,  # the shared adder + the v' accumulator adder
        "exp": 1,
        "cmp": 2,  # firing comparator + LID leak clamp
        "mux": 7,  # a/b operand selects, state read/write selects
        "reg": 8,  # tmp, v', pipeline latches, operand latches
        "ctrl": 1,  # control-signal decoder / sequencer
        "cnt": 1,
    }
