"""Figure 3: breakdown of SNN simulation latencies by phase.

The paper profiles the ten Table I SNNs on NEST (CPU) and GeNN (GPU)
and reports, per SNN, the share of per-time-step latency spent in
stimulus generation, neuron computation, and synapse calculation. The
headline observations the reproduction must preserve:

* neuron computation is a major — often dominant — share on the CPU,
  especially for RKF45 workloads;
* Euler and the GPU shrink the share, but it stays material ("up to
  32.2%" in the paper's most favourable cases).

We measure per-unit activity by running each workload at a reduced
scale, then evaluate the calibrated CPU/GPU cost models at the full
Table I scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.costmodel.cpu_gpu import (
    CPU_SPEC,
    GPU_SPEC,
    PhaseLatency,
    ProcessorSpec,
    phase_latencies,
)
from repro.experiments.common import (
    PROFILE_SCALE,
    PROFILE_STEPS,
    WorkloadProfile,
    format_table,
    profile_all,
)
from repro.workloads import get_spec, workload_names


@dataclass(frozen=True)
class BreakdownRow:
    """One bar of Figure 3: a workload on one platform."""

    workload: str
    platform: str
    latency: PhaseLatency

    @property
    def neuron_fraction(self) -> float:
        return self.latency.fractions()["neuron"]


def breakdown_for(
    profile: WorkloadProfile, spec: ProcessorSpec, gpu: bool = False
) -> PhaseLatency:
    """Per-step phase latencies at full scale on one platform.

    On the GPU, neuron updates always use forward Euler (GeNN does not
    ship RKF45), so the evaluation count collapses to 1 — one of the
    two reasons Figure 3's GPU bars show smaller neuron shares.
    """
    events = profile.full_scale_events()
    evaluations = 1.0 if gpu else profile.evaluations_per_step
    return phase_latencies(
        spec,
        n_neurons=int(events["neurons"]),
        ops_per_update=profile.ops_per_update,
        evaluations_per_step=evaluations,
        synaptic_events_per_step=events["synaptic"],
        stimulus_events_per_step=events["stimulus"],
    )


def run(
    scale: float = PROFILE_SCALE,
    steps: int = PROFILE_STEPS,
    seed: int = 1,
    names: Optional[Sequence[str]] = None,
) -> List[BreakdownRow]:
    """Regenerate Figure 3: every workload on CPU and GPU."""
    names = tuple(names) if names is not None else None
    rows: List[BreakdownRow] = []
    for profile in profile_all(scale, steps, seed, names):
        rows.append(
            BreakdownRow(profile.name, "CPU", breakdown_for(profile, CPU_SPEC))
        )
        rows.append(
            BreakdownRow(
                profile.name, "GPU", breakdown_for(profile, GPU_SPEC, gpu=True)
            )
        )
    return rows


def render(rows: List[BreakdownRow]) -> str:
    """Table I, then the Figure 3 series: percentage table + stacked bars."""
    from repro.experiments.charts import stacked_fraction_chart

    table = []
    chart_rows = []
    for row in rows:
        fractions = row.latency.fractions()
        table.append(
            (
                row.workload,
                row.platform,
                f"{row.latency.total_s * 1e6:.1f}",
                f"{100 * fractions['stimulus']:.1f}%",
                f"{100 * fractions['neuron']:.1f}%",
                f"{100 * fractions['synapse']:.1f}%",
            )
        )
        chart_rows.append(
            {
                "label": f"{row.workload} ({row.platform})",
                "stimulus": fractions["stimulus"],
                "neuron": fractions["neuron"],
                "synapse": fractions["synapse"],
            }
        )
    chart = stacked_fraction_chart(
        chart_rows,
        parts=("stimulus", "neuron", "synapse"),
        symbols=(".", "#", "="),
    )
    text = format_table(
        ["Workload", "Platform", "us/step", "Stimulus", "Neuron", "Synapse"],
        table,
    )
    return table1_inventory() + "\n\n" + text + "\n\n" + chart


def table1_inventory() -> str:
    """Render the Table I workload inventory."""
    rows = []
    for name in workload_names():
        spec = get_spec(name)
        rows.append(
            (
                spec.name,
                f"{spec.paper_neurons:,}",
                f"{spec.paper_synapses:,}",
                spec.model_name,
                spec.solver,
                spec.framework,
            )
        )
    return format_table(
        ["Name", "Neurons", "Synapses", "Neuron Model", "Solver", "Framework"],
        rows,
    )
