"""Shared experiment plumbing: profiling, table rendering and the
fixed-point-vs-float spike agreement loop of the ablations.

The evaluation methodology mirrors the paper's: workloads are *run* (at
a reduced scale so CI stays fast) to measure per-unit activity — firing
rates, synaptic events per neuron, solver evaluations — and the cost
models are then evaluated at the full Table I scale using those
measured rates. This is the standard trace-driven-modeling substitute
for the authors' physical testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.assembly import DT
from repro.fixedpoint import fx_from_float
from repro.models.registry import create_model
from repro.workloads import get_spec, spec_for, workload_names

#: The profile Figures 3 and 13 and the Amdahl analysis are made from:
#: all ten workloads profile in about a second, and the rates are
#: per-unit, so they carry to the full Table I scale.
PROFILE_SCALE = 0.03
PROFILE_STEPS = 200


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
) -> WorkloadProfile:
    """Run one workload briefly and extract its per-unit activity."""
    from repro.frontend import build_simulation

    simulator, network = build_simulation(
        {**spec_for(name, scale, seed), "backend": "reference"}
    )
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


@lru_cache(maxsize=8)
def profile_all(
    scale: float = PROFILE_SCALE,
    steps: int = PROFILE_STEPS,
    seed: int = 1,
    names: Optional[Tuple[str, ...]] = None,
) -> Tuple[WorkloadProfile, ...]:
    """Profile every (or the named) workload, once per parameter set.

    Cached: Figures 3 and 13 and the Amdahl analysis share one profile,
    in ``repro experiment all`` and in the tests alike. Callers share
    the returned profiles, so they must not mutate them
    (``ops_per_update`` is a plain dict).
    """
    return tuple(
        profile_workload(name, scale=scale, steps=steps, seed=seed)
        for name in (names if names is not None else workload_names())
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


def fired_mask_agreement(
    model_name: str, compiler, seed: int, steps: int, n: int = 16
) -> float:
    """Per-step fired-mask agreement of a baseline-Flexon array against
    its float model, both driven by the same sparse random input.

    ``compiler`` (a :class:`~repro.hardware.compiler.FlexonCompiler`)
    sets the fixed-point format the hardware side quantises its input
    to; the float side is the model's own ``step``.
    """
    model = create_model(model_name)
    compiled = compiler.compile(model, DT)
    hardware = compiled.instantiate_flexon(n)
    reference = model.initial_state(n)
    rng = np.random.default_rng(seed)
    agree = 0
    for _ in range(steps):
        weights = (rng.random((2, n)) < 0.08) * 1.5
        weights[1] *= 0.2
        raw = fx_from_float(weights * compiled.weight_scale, compiler.fmt)
        fired_hw = hardware.step(raw)
        fired_ref = model.step(reference, weights.copy(), DT)
        agree += int((fired_hw == fired_ref).sum())
    return agree / (steps * n)
