"""Table VI: chip area and power of the two digital-neuron arrays.

Paper numbers (for reference in the rendered output):

====================================  ==========  ===========  ==========
Array                                 Component   Area [mm^2]  Power [W]
====================================  ==========  ===========  ==========
Flexon (12 neurons)                   Neuron      1.188        0.130
                                      SRAM        8.070        0.751
                                      Total       9.258        0.881
Spatially Folded Flexon (72 neurons)  Neuron      1.294        0.305
                                      SRAM        6.324        1.179
                                      Total       7.618        1.484
====================================  ==========  ===========  ==========

The shapes to preserve: the 72-neuron folded array fits in a similar
or smaller footprint than the 12-neuron baseline array; SRAM dominates
both; the folded array burns more power (shared units and SRAM busy
every cycle at twice the clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.costmodel.synthesis import ArrayCost, flexon_array_cost, folded_array_cost
from repro.experiments.common import format_table

#: Paper's Table VI rows, for side-by-side rendering.
PAPER_NUMBERS = {
    "Flexon (12 neurons)": {
        "Neuron": (1.188, 0.130),
        "SRAM": (8.070, 0.751),
        "Total": (9.258, 0.881),
    },
    "Spatially Folded Flexon (72 neurons)": {
        "Neuron": (1.294, 0.305),
        "SRAM": (6.324, 1.179),
        "Total": (7.618, 1.484),
    },
}


@dataclass(frozen=True)
class Table6Result:
    """Both array cost breakdowns."""

    flexon: ArrayCost
    folded: ArrayCost


def run() -> Table6Result:
    """Synthesize both Table VI arrays."""
    return Table6Result(flexon=flexon_array_cost(), folded=folded_array_cost())


def render(result: Table6Result) -> str:
    """Render Table VI with measured-vs-paper columns."""
    rows: List[tuple] = []
    for array in (result.flexon, result.folded):
        paper = PAPER_NUMBERS[array.name]
        components = (
            ("Neuron", array.neuron_area_mm2, array.neuron_power_w),
            ("SRAM", array.sram_area_mm2, array.sram_power_w),
            ("Total", array.total_area_mm2, array.total_power_w),
        )
        for component, area, power in components:
            paper_area, paper_power = paper[component]
            rows.append(
                (
                    array.name,
                    component,
                    f"{area:.3f}",
                    f"{paper_area:.3f}",
                    f"{power:.3f}",
                    f"{paper_power:.3f}",
                )
            )
    return format_table(
        [
            "Array",
            "Component",
            "Area [mm^2]",
            "(paper)",
            "Power [W]",
            "(paper)",
        ],
        rows,
    )
