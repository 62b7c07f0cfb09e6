"""Figure 13: speedups and energy-efficiency gains over CPU and GPU.

For each Table I workload, the paper compares the *neuron computation
phase* of one time step on four platforms: the Xeon (NEST), the
Titan X (GeNN), the 12-neuron Flexon array, and the 72-neuron folded
Flexon array. Reported shapes this reproduction must preserve:

* both arrays beat the CPU by roughly two orders of magnitude and the
  GPU by roughly one (paper geomeans: Flexon 87.4x / 8.19x, folded
  122.5x / 9.83x);
* the folded array usually wins on latency (more neurons in flight),
  *except* on the Destexhe workloads, whose long AdEx microprograms
  (three synapse types) make the single-cycle design faster;
* the baseline Flexon array wins on energy efficiency (paper: 6,186x /
  442x over CPU/GPU vs the folded array's 5,415x / 135x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.assembly import DT
from repro.costmodel.cpu_gpu import (
    CPU_SPEC,
    GPU_SPEC,
    neuron_phase_latency,
)
from repro.costmodel.energy import energy_joules, geomean, improvement
from repro.costmodel.synthesis import flexon_array_cost, folded_array_cost
from repro.experiments.common import (
    PROFILE_SCALE,
    PROFILE_STEPS,
    WorkloadProfile,
    format_table,
    profile_all,
)
from repro.hardware.array import FlexonArray, FoldedFlexonArray
from repro.hardware.compiler import FlexonCompiler
from repro.workloads import build_workload, get_spec


@dataclass(frozen=True)
class PlatformResult:
    """Neuron-computation latency and energy of one platform."""

    latency_s: float
    energy_j: float


@dataclass(frozen=True)
class Figure13Row:
    """One workload's results on all four platforms."""

    workload: str
    cpu: PlatformResult
    gpu: PlatformResult
    flexon: PlatformResult
    folded: PlatformResult

    def speedups(self) -> Dict[str, float]:
        return {
            "flexon_vs_cpu": improvement(self.cpu.latency_s, self.flexon.latency_s),
            "flexon_vs_gpu": improvement(self.gpu.latency_s, self.flexon.latency_s),
            "folded_vs_cpu": improvement(self.cpu.latency_s, self.folded.latency_s),
            "folded_vs_gpu": improvement(self.gpu.latency_s, self.folded.latency_s),
        }

    def efficiency_gains(self) -> Dict[str, float]:
        return {
            "flexon_vs_cpu": improvement(self.cpu.energy_j, self.flexon.energy_j),
            "flexon_vs_gpu": improvement(self.gpu.energy_j, self.flexon.energy_j),
            "folded_vs_cpu": improvement(self.cpu.energy_j, self.folded.energy_j),
            "folded_vs_gpu": improvement(self.gpu.energy_j, self.folded.energy_j),
        }


def _folded_signals(name: str) -> int:
    """Microprogram length of a workload's neuron model.

    Uses the workload's own model parameters (Destexhe runs three
    synapse types, which lengthens its AdEx program).
    """
    network = build_workload(name, scale=0.01, seed=0)
    model = next(iter(network.populations.values())).model
    compiled = FlexonCompiler().compile(model, DT)
    return compiled.program.n_signals


def evaluate_workload(
    profile: WorkloadProfile,
    flexon_array: Optional[FlexonArray] = None,
    folded_array: Optional[FoldedFlexonArray] = None,
) -> Figure13Row:
    """Neuron-phase latency/energy of one workload on all platforms."""
    spec = get_spec(profile.name)
    n = spec.paper_neurons
    flexon_array = flexon_array if flexon_array is not None else FlexonArray()
    folded_array = folded_array if folded_array is not None else FoldedFlexonArray()

    cpu_latency = neuron_phase_latency(
        CPU_SPEC, n, profile.ops_per_update, profile.evaluations_per_step
    )
    gpu_latency = neuron_phase_latency(
        GPU_SPEC, n, profile.ops_per_update, 1.0  # GeNN integrates with Euler
    )
    flexon_latency = flexon_array.step_latency_seconds(n)
    folded_latency = folded_array.step_latency_seconds(
        n, cycles_per_neuron=_folded_signals(profile.name)
    )
    flexon_power = flexon_array_cost(flexon_array.n_physical).total_power_w
    folded_power = folded_array_cost(folded_array.n_physical).total_power_w
    return Figure13Row(
        workload=profile.name,
        cpu=PlatformResult(
            cpu_latency, energy_joules(CPU_SPEC.power_w, cpu_latency)
        ),
        gpu=PlatformResult(
            gpu_latency, energy_joules(GPU_SPEC.power_w, gpu_latency)
        ),
        flexon=PlatformResult(
            flexon_latency, energy_joules(flexon_power, flexon_latency)
        ),
        folded=PlatformResult(
            folded_latency, energy_joules(folded_power, folded_latency)
        ),
    )


def run(
    scale: float = PROFILE_SCALE,
    steps: int = PROFILE_STEPS,
    seed: int = 1,
    names: Optional[Sequence[str]] = None,
) -> List[Figure13Row]:
    """Regenerate Figure 13 for all (or the given) workloads."""
    names = tuple(names) if names is not None else None
    return [
        evaluate_workload(profile)
        for profile in profile_all(scale, steps, seed, names)
    ]


def geomean_speedups(rows: List[Figure13Row]) -> Dict[str, float]:
    """Figure 13a's geometric-mean bars."""
    keys = ("flexon_vs_cpu", "flexon_vs_gpu", "folded_vs_cpu", "folded_vs_gpu")
    return {
        key: geomean(row.speedups()[key] for row in rows) for key in keys
    }


def geomean_efficiency(rows: List[Figure13Row]) -> Dict[str, float]:
    """Figure 13b's geometric-mean bars."""
    keys = ("flexon_vs_cpu", "flexon_vs_gpu", "folded_vs_cpu", "folded_vs_gpu")
    return {
        key: geomean(row.efficiency_gains()[key] for row in rows)
        for key in keys
    }


def render(rows: List[Figure13Row]) -> str:
    """Render both panels of Figure 13 as tables."""
    latency_rows = []
    energy_rows = []
    for row in rows:
        speedups = row.speedups()
        gains = row.efficiency_gains()
        latency_rows.append(
            (
                row.workload,
                f"{row.cpu.latency_s * 1e6:.1f}",
                f"{row.gpu.latency_s * 1e6:.1f}",
                f"{row.flexon.latency_s * 1e6:.2f}",
                f"{row.folded.latency_s * 1e6:.2f}",
                f"{speedups['flexon_vs_cpu']:.1f}x/{speedups['flexon_vs_gpu']:.1f}x",
                f"{speedups['folded_vs_cpu']:.1f}x/{speedups['folded_vs_gpu']:.1f}x",
            )
        )
        energy_rows.append(
            (
                row.workload,
                f"{gains['flexon_vs_cpu']:.0f}x",
                f"{gains['flexon_vs_gpu']:.0f}x",
                f"{gains['folded_vs_cpu']:.0f}x",
                f"{gains['folded_vs_gpu']:.0f}x",
            )
        )
    speed = geomean_speedups(rows)
    efficiency = geomean_efficiency(rows)
    part_a = format_table(
        [
            "Workload",
            "CPU us",
            "GPU us",
            "Flexon us",
            "Folded us",
            "Flexon vs CPU/GPU",
            "Folded vs CPU/GPU",
        ],
        latency_rows,
    )
    part_b = format_table(
        [
            "Workload",
            "Flexon/CPU",
            "Flexon/GPU",
            "Folded/CPU",
            "Folded/GPU",
        ],
        energy_rows,
    )
    summary = (
        f"geomean latency: Flexon {speed['flexon_vs_cpu']:.1f}x CPU, "
        f"{speed['flexon_vs_gpu']:.2f}x GPU (paper 87.4x / 8.19x); "
        f"folded {speed['folded_vs_cpu']:.1f}x CPU, "
        f"{speed['folded_vs_gpu']:.2f}x GPU (paper 122.5x / 9.83x)\n"
        f"geomean energy eff.: Flexon {efficiency['flexon_vs_cpu']:.0f}x CPU, "
        f"{efficiency['flexon_vs_gpu']:.0f}x GPU (paper 6186x / 442x); "
        f"folded {efficiency['folded_vs_cpu']:.0f}x CPU, "
        f"{efficiency['folded_vs_gpu']:.0f}x GPU (paper 5415x / 135x)"
    )
    from repro.experiments.charts import bar_chart

    chart = bar_chart(
        {
            "Flexon vs CPU (latency)": speed["flexon_vs_cpu"],
            "Folded vs CPU (latency)": speed["folded_vs_cpu"],
            "Flexon vs GPU (latency)": speed["flexon_vs_gpu"],
            "Folded vs GPU (latency)": speed["folded_vs_gpu"],
            "Flexon vs CPU (energy)": efficiency["flexon_vs_cpu"],
            "Folded vs CPU (energy)": efficiency["folded_vs_cpu"],
            "Flexon vs GPU (energy)": efficiency["flexon_vs_gpu"],
            "Folded vs GPU (energy)": efficiency["folded_vs_gpu"],
        },
        unit="x",
        log_scale=True,
    )
    return (
        "Figure 13a (neuron-computation latency per step)\n"
        + part_a
        + "\n\nFigure 13b (energy-efficiency improvement)\n"
        + part_b
        + "\n\n"
        + summary
        + "\n\ngeomean improvements (log scale)\n"
        + chart
    )
