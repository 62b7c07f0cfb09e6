"""Section VI-A: functional verification against the software reference.

"The functional correctness of the implementations is thoroughly
verified by running testbenches for the neuron models and by comparing
the output spikes with those of Brian, a CPU-based SNN simulator."

Our Brian substitute is the reference simulator with forward Euler (the
scheme the hardware discretises). This harness runs full *networks* —
not just isolated neurons — on the reference backend and on both
hardware backends, then compares spike trains:

* baseline Flexon vs folded Flexon must match **exactly** (they are
  bit-identical designs);
* hardware vs float reference must match to a high rate (fixed-point
  rounding perturbs marginal threshold crossings; the trains otherwise
  coincide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.common import format_table
from repro.frontend import build_simulation
from repro.network.simulator import Simulator
from repro.workloads import spec_for, workload_names


@dataclass(frozen=True)
class ValidationRow:
    """Spike-train comparison for one workload.

    In a recurrent network, a single rounding-perturbed spike changes
    every downstream spike — the dynamics are chaotic — so full-run
    (step, neuron) overlap decays with simulation length even though
    the implementations agree. Two stable metrics accompany it: the
    overlap over the *early horizon* (before divergence can compound)
    and the relative difference in total spike counts (the population
    statistics, which fixed point preserves).
    """

    workload: str
    reference_spikes: int
    flexon_spikes: int
    folded_spikes: int
    #: Jaccard overlap of (step, neuron) spike sets, reference vs Flexon.
    overlap: float
    #: Same overlap restricted to the first `horizon` steps.
    early_overlap: float
    #: Baseline Flexon and folded Flexon produced identical spike sets.
    designs_identical: bool

    @property
    def count_agreement(self) -> float:
        """min/max ratio of total spike counts (1.0 = identical)."""
        hi = max(self.reference_spikes, self.flexon_spikes)
        lo = min(self.reference_spikes, self.flexon_spikes)
        return 1.0 if hi == 0 else lo / hi


def _spike_sets(simulator: Simulator, steps: int):
    result = simulator.run(steps)
    sets = {}
    for name in simulator.network.populations:
        sets[name] = result.spikes.result(name).spike_pairs()
    return result, sets


def validate_workload(
    name: str,
    scale: float = 0.03,
    steps: int = 400,
    seed: int = 5,
    horizon: int = 150,
) -> ValidationRow:
    """Compare reference / Flexon / folded spike trains on one workload.

    The same seeds drive construction and stimulus on every backend, so
    the three simulations see identical inputs until their own spikes
    diverge (fixed-point effects compound through recurrence — overlap
    is measured on the full (step, neuron) spike sets).
    """
    runs = {}
    spec = spec_for(name, scale, seed)
    for key in ("reference", "flexon", "folded"):
        simulator, _ = build_simulation(
            {**spec, "backend": key, "solver": "Euler"}
        )
        runs[key] = _spike_sets(simulator, steps)

    reference_set = set().union(*runs["reference"][1].values())
    flexon_set = set().union(*runs["flexon"][1].values())
    folded_set = set().union(*runs["folded"][1].values())

    def jaccard(a, b):
        union = a | b
        return len(a & b) / len(union) if union else 1.0

    early_ref = {pair for pair in reference_set if pair[0] < horizon}
    early_fx = {pair for pair in flexon_set if pair[0] < horizon}
    return ValidationRow(
        workload=name,
        reference_spikes=len(reference_set),
        flexon_spikes=len(flexon_set),
        folded_spikes=len(folded_set),
        overlap=jaccard(reference_set, flexon_set),
        early_overlap=jaccard(early_ref, early_fx),
        designs_identical=flexon_set == folded_set,
    )


def run(
    scale: float = 0.03,
    steps: int = 400,
    names: Optional[List[str]] = None,
) -> List[ValidationRow]:
    """Validate all (or the given) workloads."""
    return [
        validate_workload(name, scale=scale, steps=steps)
        for name in (names if names is not None else workload_names())
    ]


def format_validation(rows: List[ValidationRow]) -> str:
    """Render the Section VI-A verification table."""
    table = []
    for row in rows:
        table.append(
            (
                row.workload,
                row.reference_spikes,
                row.flexon_spikes,
                row.folded_spikes,
                f"{100 * row.count_agreement:.1f}%",
                f"{100 * row.early_overlap:.1f}%",
                f"{100 * row.overlap:.1f}%",
                "yes" if row.designs_identical else "NO",
            )
        )
    return format_table(
        [
            "Workload",
            "Ref spikes",
            "Flexon spikes",
            "Folded spikes",
            "Count agr.",
            "Early overlap",
            "Full overlap",
            "Flexon==Folded",
        ],
        table,
    )
