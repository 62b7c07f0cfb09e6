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
from typing import Dict, List, Optional, Set, Tuple

from repro.experiments.common import format_table
from repro.frontend import build_simulation
from repro.network.simulator import Simulator
from repro.workloads import spec_for, workload_names


#: Half-width, in time steps, of the window inside which a hardware
#: spike counts as coinciding with a reference spike on the same neuron.
WINDOW = 1

Spike = Tuple[str, int, int]  #: (population, step, neuron)


@dataclass(frozen=True)
class ValidationRow:
    """Spike-train comparison for one workload.

    In a recurrent network, a single rounding-perturbed spike changes
    every downstream spike — the dynamics are chaotic — so full-run
    (step, neuron) overlap decays with simulation length even though
    the implementations agree. Stable metrics accompany it: the
    overlap and the coincidence over the *early horizon* (before
    divergence can compound) and the relative difference in total
    spike counts (the population statistics, which fixed point
    preserves).
    """

    workload: str
    reference_spikes: int
    flexon_spikes: int
    folded_spikes: int
    #: Jaccard overlap of (step, neuron) spike sets, reference vs Flexon.
    overlap: float
    #: Same overlap restricted to the first `horizon` steps.
    early_overlap: float
    #: Coincidence factor over the first `horizon` steps: 2 * matches /
    #: (reference + Flexon spikes), where a match pairs one reference
    #: and one Flexon spike of the same neuron at most ``WINDOW`` steps
    #: apart (each spike in at most one pair).
    early_coincidence: float
    #: Baseline Flexon and folded Flexon produced identical spike sets.
    designs_identical: bool

    @property
    def count_agreement(self) -> float:
        """min/max ratio of total spike counts (1.0 = identical)."""
        hi = max(self.reference_spikes, self.flexon_spikes)
        lo = min(self.reference_spikes, self.flexon_spikes)
        return 1.0 if hi == 0 else lo / hi


def _spike_set(simulator: Simulator, steps: int) -> Set[Spike]:
    """Every spike of a run as (population, step, neuron)."""
    spikes = simulator.run(steps).spikes
    return {
        (name, step, neuron)
        for name in simulator.network.populations
        for step, neuron in spikes.result(name).spike_pairs()
    }


def jaccard(a: Set, b: Set) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def coincidence(a: Set[Spike], b: Set[Spike]) -> float:
    """2 * one-to-one matches within ``WINDOW`` steps / (|a| + |b|).

    Kistler et al. (1997)'s coincidence count, per neuron, without
    their chance correction: at the registry's rates (at most 43 Hz,
    Brunel) a chance match inside the three-step window is at most
    about 1.3 %.
    """
    trains: Dict[Tuple[str, int], Tuple[List[int], List[int]]] = {}
    for side, spikes in enumerate((a, b)):
        for name, step, neuron in spikes:
            trains.setdefault((name, neuron), ([], []))[side].append(step)
    matches = 0
    for first, second in trains.values():
        first.sort()
        second.sort()
        # Greedy earliest-first pairing is a maximum matching on a line.
        i = j = 0
        while i < len(first) and j < len(second):
            if abs(first[i] - second[j]) <= WINDOW:
                matches += 1
                i += 1
                j += 1
            elif first[i] < second[j]:
                i += 1
            else:
                j += 1
    total = len(a) + len(b)
    return 2 * matches / total if total else 1.0


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
    spec = spec_for(name, scale, seed)
    runs = {}
    for key in ("reference", "flexon", "folded"):
        simulator, _ = build_simulation(
            {**spec, "backend": key, "solver": "Euler"}
        )
        runs[key] = _spike_set(simulator, steps)
    reference, flexon = runs["reference"], runs["flexon"]
    early_ref = {spike for spike in reference if spike[1] < horizon}
    early_fx = {spike for spike in flexon if spike[1] < horizon}
    return ValidationRow(
        workload=name,
        reference_spikes=len(reference),
        flexon_spikes=len(flexon),
        folded_spikes=len(runs["folded"]),
        overlap=jaccard(reference, flexon),
        early_overlap=jaccard(early_ref, early_fx),
        early_coincidence=coincidence(early_ref, early_fx),
        designs_identical=flexon == runs["folded"],
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


def render(rows: List[ValidationRow]) -> str:
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
                f"{100 * row.early_coincidence:.1f}%",
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
            f"Early coinc. (+/-{WINDOW})",
            "Full overlap",
            "Flexon==Folded",
        ],
        table,
    )
