"""Ablation: synapse-type count against hardware cost and latency.

Most SNNs use two synapse types, while "others use three or more
synapse types (e.g., GABA, AMPA, and NMDA)", and the paper's Destexhe
results hinge on exactly this. The ablation sweeps 1-4 types and
reports baseline Flexon's area (its per-type data paths replicate),
the folded microprogram length (one shared datapath pays in cycles
instead) and the resulting latency winner.
"""

from __future__ import annotations

from typing import Dict, List

from repro.costmodel.netlist import flexon_inventory
from repro.costmodel.synthesis import synthesize, synthesize_folded_neuron
from repro.experiments.common import format_table
from repro.features import features_for_model
from repro.hardware.array import FlexonArray, FoldedFlexonArray
from repro.hardware.constants import prepare_constants
from repro.hardware.microcode import assemble
from repro.models import ModelParameters

DT = 1e-4
N_LOGICAL = 10_000


def run() -> List[Dict[str, float]]:
    """One row per synapse-type count, for AdEx."""
    rows = []
    folded_area = synthesize_folded_neuron().area_um2
    flexon_array = FlexonArray()
    folded_array = FoldedFlexonArray()
    features = features_for_model("AdEx")
    for n_types in (1, 2, 3, 4):
        params = ModelParameters(
            n_synapse_types=n_types,
            tau_g=(5e-3, 10e-3, 100e-3, 8e-3)[:max(2, n_types)],
            v_g=(4.33, -1.0, 4.33, -1.0)[:max(2, n_types)],
        )
        program = assemble(features, prepare_constants(params, features, DT))
        flexon_cost = synthesize(
            "flexon", flexon_inventory(n_types), 250e6, activity=0.65
        )
        flexon_us = flexon_array.step_latency_seconds(N_LOGICAL) * 1e6
        folded_us = (
            folded_array.step_latency_seconds(
                N_LOGICAL, cycles_per_neuron=program.n_signals
            )
            * 1e6
        )
        rows.append(
            {
                "n_types": n_types,
                "signals": program.n_signals,
                "flexon_area": flexon_cost.area_um2,
                "area_ratio": flexon_cost.area_um2 / folded_area,
                "flexon_us": flexon_us,
                "folded_us": folded_us,
            }
        )
    return rows


def render(rows: List[Dict[str, float]]) -> str:
    return format_table(
        [
            "Synapse types",
            "AdEx signals",
            "Flexon area um^2",
            "Area ratio vs folded",
            "Flexon us/step",
            "Folded us/step",
        ],
        [
            (
                row["n_types"],
                row["signals"],
                f"{row['flexon_area']:,.0f}",
                f"{row['area_ratio']:.2f}",
                f"{row['flexon_us']:.2f}",
                f"{row['folded_us']:.2f}",
            )
            for row in rows
        ],
    )
