"""Figure 12: power and area of the data paths and both Flexons.

The paper's shapes this reproduction must preserve:

* the per-feature data paths are far cheaper than a complete neuron;
  AR (a counter) is the cheapest; EXI and RR the priciest;
* baseline Flexon needs up to ~5.84x the area and up to ~3.44x the
  power of spatially folded Flexon;
* folded Flexon is cheaper than some individual data paths (EXI, RR)
  because folding removes redundancy even within one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.costmodel.synthesis import (
    DesignCost,
    synthesize_datapaths,
    synthesize_flexon_neuron,
    synthesize_folded_neuron,
)
from repro.experiments.common import format_table


@dataclass(frozen=True)
class Figure12Result:
    """All bars of Figure 12."""

    datapaths: Dict[str, DesignCost]
    flexon: DesignCost
    folded: DesignCost

    @property
    def area_ratio(self) -> float:
        """Flexon : folded area ratio (paper: up to 5.84x)."""
        return self.flexon.area_um2 / self.folded.area_um2

    @property
    def power_ratio(self) -> float:
        """Flexon : folded power ratio (paper: up to 3.44x)."""
        return self.flexon.power_w / self.folded.power_w


def run() -> Figure12Result:
    """Synthesize every Figure 12 bar."""
    return Figure12Result(
        datapaths=synthesize_datapaths(),
        flexon=synthesize_flexon_neuron(),
        folded=synthesize_folded_neuron(),
    )


def render(result: Figure12Result) -> str:
    """Render Figure 12 as a table plus the headline ratios."""
    rows: List[tuple] = []
    for name, cost in result.datapaths.items():
        rows.append((name, f"{cost.area_um2:,.0f}", f"{cost.power_w * 1e3:.2f}"))
    rows.append(
        (
            result.flexon.name,
            f"{result.flexon.area_um2:,.0f}",
            f"{result.flexon.power_w * 1e3:.2f}",
        )
    )
    rows.append(
        (
            result.folded.name,
            f"{result.folded.area_um2:,.0f}",
            f"{result.folded.power_w * 1e3:.2f}",
        )
    )
    table = format_table(["Design", "Area [um^2]", "Power [mW]"], rows)
    summary = (
        f"Flexon : folded ratios — area {result.area_ratio:.2f}x "
        f"(paper up to 5.84x), power {result.power_ratio:.2f}x "
        f"(paper up to 3.44x)"
    )
    return table + "\n\n" + summary
