"""Shared experiment plumbing: profiling and table rendering.

The evaluation methodology mirrors the paper's: workloads are *run* (at
a reduced scale so CI stays fast) to measure per-unit activity — firing
rates, synaptic events per neuron, solver evaluations — and the cost
models are then evaluated at the full Table I scale using those
measured rates. This is the standard trace-driven-modeling substitute
for the authors' physical testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.assembly import DT
from repro.workloads import get_spec, spec_for


@dataclass(frozen=True)
class WorkloadProfile:
    """Measured per-unit activity of one workload.

    All rates are intensive quantities (per neuron / per synapse), so
    they transfer from the profiled scale to the full Table I scale.
    """

    name: str
    scale: float
    n_neurons: int
    n_synapses: int
    firing_rate_hz: float
    #: synaptic events per synapse per time step
    synaptic_event_rate: float
    #: stimulus events per neuron per time step
    stimulus_event_rate: float
    #: solver evaluations per population per step (mean across pops)
    evaluations_per_step: float
    #: weighted arithmetic ops of one neuron update (model-dependent)
    ops_per_update: Dict[str, int]

    def full_scale_events(self) -> Dict[str, float]:
        """Per-step event counts at the full Table I scale."""
        spec = get_spec(self.name)
        return {
            "neurons": float(spec.paper_neurons),
            "synaptic": self.synaptic_event_rate * spec.paper_synapses,
            "stimulus": self.stimulus_event_rate * spec.paper_neurons,
        }


def profile_workload(
    name: str,
    scale: float = 0.05,
    steps: int = 400,
    seed: int = 1,
    solver: Optional[str] = None,
    use_engine: bool = True,
) -> WorkloadProfile:
    """Run one workload briefly and extract its per-unit activity.

    ``use_engine=False`` profiles on the dict-state solver path instead
    of the compiled step-plan path; the measured activity is identical
    (the two are spike-identical), only wall-clock differs.
    """
    from repro.frontend import build_simulation

    spec = spec_for(name, scale, seed)
    simulator, network = build_simulation({
        **spec, "backend": "reference" if use_engine else "solver",
        "solver": solver or spec["solver"],
    })
    result = simulator.run(steps)
    duration = steps * DT
    n = network.n_neurons
    synapses = max(1, network.n_synapses)
    evaluations = result.evaluations_per_step
    mean_evals = (
        sum(evaluations.values()) / len(evaluations) if evaluations else 1.0
    )
    # Ops of the (first) population's model — workloads are homogeneous.
    model = next(iter(network.populations.values())).model
    return WorkloadProfile(
        name=name,
        scale=scale,
        n_neurons=n,
        n_synapses=network.n_synapses,
        firing_rate_hz=result.total_spikes() / max(1, n) / duration,
        synaptic_event_rate=result.synaptic_events / steps / synapses,
        stimulus_event_rate=result.stimulus_events / steps / max(1, n),
        evaluations_per_step=mean_evals,
        ops_per_update=model.ops_per_update(),
    )


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render rows as a fixed-width text table."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
        )
    widths = [
        max(len(line[col]) for line in cells) for col in range(len(headers))
    ]
    lines = []
    for i, line in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
