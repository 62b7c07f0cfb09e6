"""Ablation: folding's trade-off, array size against microprogram length.

The paper fixes 12 baseline neurons against 72 folded neurons from the
area ratio. This ablation sweeps equal-area folded arrays across
microprogram lengths and maps where the folded design stops winning:
the general form of Section VI-C's Destexhe crossover.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.costmodel.synthesis import (
    synthesize_flexon_neuron,
    synthesize_folded_neuron,
)
from repro.experiments.common import format_table
from repro.hardware.array import FlexonArray, FoldedFlexonArray

N_LOGICAL = 10_000


def run() -> Tuple[int, List[tuple]]:
    """Equal-area folded size, and per microprogram length the folded
    and Flexon latencies [us/step] and their ratio (folded/flexon)."""
    flexon_area = synthesize_flexon_neuron().area_um2
    folded_area = synthesize_folded_neuron().area_um2
    # Equal-silicon sizing, like the paper's 12 vs 72.
    n_folded = int(12 * flexon_area / folded_area)
    flexon = FlexonArray(12)
    folded = FoldedFlexonArray(n_folded)
    rows = []
    for signals in (1, 3, 7, 10, 12, 15, 20):
        flexon_latency = flexon.step_latency_seconds(N_LOGICAL)
        folded_latency = folded.step_latency_seconds(
            N_LOGICAL, cycles_per_neuron=signals
        )
        rows.append(
            (
                signals,
                f"{folded_latency * 1e6:.2f}",
                f"{flexon_latency * 1e6:.2f}",
                f"{folded_latency / flexon_latency:.2f}",
            )
        )
    return n_folded, rows


def render(crossover: Tuple[int, List[tuple]]) -> str:
    n_folded, rows = crossover
    text = format_table(
        [
            "Microprogram signals",
            "Folded us/step",
            "Flexon us/step",
            "Folded/Flexon",
        ],
        rows,
    )
    return (
        f"Equal-area arrays: 12 Flexon vs {n_folded} folded neurons, "
        f"{N_LOGICAL} logical neurons\n\n" + text
    )
