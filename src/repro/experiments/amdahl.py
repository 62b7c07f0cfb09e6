"""End-to-end speedup analysis (Amdahl's law over the three phases).

Figure 13 reports *neuron-computation* speedups; the obvious systems
question is what Flexon buys end to end, since stimulus generation and
synapse calculation stay on the host (Section II-C). This analysis
combines the Figure 3 phase model with the Figure 13 array latencies:

    total_after = stimulus + synapse + neuron_on_array

The whole-step speedup is bounded by the host-side share — Amdahl's
law — which is why the paper's own Figure 3 motivates accelerating the
*dominant* phase and why RKF45 workloads (neuron-bound) gain far more
end to end than Euler workloads (synapse-bound on the CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.costmodel.cpu_gpu import CPU_SPEC
from repro.costmodel.energy import geomean, improvement
from repro.experiments.common import (
    PROFILE_SCALE,
    PROFILE_STEPS,
    WorkloadProfile,
    format_table,
    profile_all,
)
from repro.experiments.figure3 import breakdown_for
from repro.experiments.figure13 import _folded_signals
from repro.hardware.array import FoldedFlexonArray
from repro.workloads import get_spec


@dataclass(frozen=True)
class AmdahlRow:
    """End-to-end per-step latencies before/after offloading."""

    workload: str
    cpu_total_s: float
    cpu_neuron_s: float
    array_neuron_s: float

    @property
    def host_share(self) -> float:
        """Fraction of the original step outside neuron computation."""
        return 1.0 - self.cpu_neuron_s / self.cpu_total_s

    @property
    def total_after_s(self) -> float:
        return self.cpu_total_s - self.cpu_neuron_s + self.array_neuron_s

    @property
    def end_to_end_speedup(self) -> float:
        return improvement(self.cpu_total_s, self.total_after_s)

    @property
    def neuron_speedup(self) -> float:
        return improvement(self.cpu_neuron_s, self.array_neuron_s)

    @property
    def amdahl_bound(self) -> float:
        """Upper bound with an infinitely fast neuron array."""
        return 1.0 / self.host_share if self.host_share > 0 else float("inf")


def evaluate(profile: WorkloadProfile) -> AmdahlRow:
    """End-to-end analysis for one workload on CPU + folded array."""
    latency = breakdown_for(profile, CPU_SPEC)
    spec = get_spec(profile.name)
    array = FoldedFlexonArray()
    array_neuron = array.step_latency_seconds(
        spec.paper_neurons, cycles_per_neuron=_folded_signals(profile.name)
    )
    return AmdahlRow(
        workload=profile.name,
        cpu_total_s=latency.total_s,
        cpu_neuron_s=latency.neuron_s,
        array_neuron_s=array_neuron,
    )


def run(
    scale: float = PROFILE_SCALE,
    steps: int = PROFILE_STEPS,
    names: Optional[Sequence[str]] = None,
) -> List[AmdahlRow]:
    """Analyse all (or the given) workloads."""
    names = tuple(names) if names is not None else None
    return [
        evaluate(profile) for profile in profile_all(scale, steps, 1, names)
    ]


def render(rows: List[AmdahlRow]) -> str:
    """Render the end-to-end analysis."""
    table = []
    for row in rows:
        table.append(
            (
                row.workload,
                f"{row.cpu_total_s * 1e6:.1f}",
                f"{row.total_after_s * 1e6:.1f}",
                f"{row.neuron_speedup:.1f}x",
                f"{row.end_to_end_speedup:.2f}x",
                f"{row.amdahl_bound:.2f}x",
            )
        )
    text = format_table(
        [
            "Workload",
            "CPU us/step",
            "With folded array",
            "Neuron speedup",
            "End-to-end speedup",
            "Amdahl bound",
        ],
        table,
    )
    overall = geomean(row.end_to_end_speedup for row in rows)
    return (
        text
        + f"\n\ngeomean end-to-end speedup: {overall:.2f}x "
        "(vs the neuron-phase-only geomean of Figure 13a) — the host-side "
        "stimulus and synapse phases bound the whole-step gain, which is "
        "why neuron-dominated RKF45 workloads benefit most."
    )
