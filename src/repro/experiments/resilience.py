"""Resilience: quantify spike-train drift under injected faults.

Section VI-A verifies the fault-free claim — fixed point reproduces the
float reference's spikes. This harness asks the complementary
engineering question the paper leaves open: how gracefully does each
backend degrade when the run is *not* fault-free? Three sustained fault
processes from :mod:`repro.reliability.faults` stress one workload:

* **bit-flip** — a single-event upset flips one random state bit every
  N steps (raw fixed-point words on hardware, IEEE-754 payloads on the
  float reference — the same physical fault in each representation);
* **spike-drop** — a lossy interconnect loses queued spike deliveries
  with probability p per step;
* **input-perturb** — Gaussian noise rides on every active input wire.

Each faulty run is compared against a clean run of the *same* backend
with identical seeds, so the drift measured is exactly the fault's
doing. Reported per scenario: Jaccard overlap of the (step, neuron)
spike sets, the relative change in total spike count, and how many
faults were actually applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.assembly import assemble
from repro.engine.hooks import PhaseHook
from repro.network.simulator import Simulator
from repro.reliability.faults import (
    BitFlipFault,
    InputPerturbFault,
    SpikeDropFault,
)
from repro.experiments.common import format_table

#: The fault scenarios, in report order.
SCENARIOS = ("none", "bit-flip", "spike-drop", "input-perturb")

#: The backends stressed by default: the float reference and the
#: folded hardware array (baseline Flexon behaves identically to
#: folded by construction, so one hardware design suffices here).
BACKENDS = ("reference", "folded")


@dataclass(frozen=True)
class ResilienceRow:
    """One (backend, scenario) cell of the resilience matrix."""

    backend: str
    scenario: str
    clean_spikes: int
    faulty_spikes: int
    #: Jaccard overlap of (step, neuron) spike sets, clean vs faulty.
    overlap: float
    #: Faults actually applied (flips, drops, or perturbed entries).
    faults_applied: int

    @property
    def rate_deviation(self) -> float:
        """Relative change in total spike count (0.0 = unchanged)."""
        if self.clean_spikes == 0:
            return 0.0 if self.faulty_spikes == 0 else float("inf")
        return abs(self.faulty_spikes - self.clean_spikes) / self.clean_spikes


def _make_faults(
    scenario: str,
    simulator: Simulator,
    population: str,
    seed: int,
    flip_every: int,
    p_drop: float,
    sigma: float,
) -> Tuple[Sequence[PhaseHook], Callable[[], int]]:
    """Hooks for one scenario plus a counter of faults applied."""
    if scenario == "none":
        return (), lambda: 0
    if scenario == "bit-flip":
        fault = BitFlipFault(
            simulator, population, every=flip_every, n_flips=1, seed=seed
        )
        return (fault,), lambda: len(fault.log)
    if scenario == "spike-drop":
        fault = SpikeDropFault(simulator, p_drop=p_drop, seed=seed)
        return (fault,), lambda: fault.dropped
    if scenario == "input-perturb":
        fault = InputPerturbFault(simulator, sigma=sigma, seed=seed)
        return (fault,), lambda: fault.perturbed
    raise ValueError(f"unknown scenario {scenario!r}")


def _spike_set(
    workload: str,
    backend_kind: str,
    scenario: str,
    scale: float,
    steps: int,
    seed: int,
    flip_every: int,
    p_drop: float,
    sigma: float,
) -> Tuple[set, int]:
    """Run one (backend, scenario) combination; return spikes + faults."""
    # Euler on every backend: the scheme the hardware discretises.
    simulator = assemble(
        workload, backend_kind, scale=scale, seed=seed, solver="Euler"
    ).simulator()
    network = simulator.network
    population = next(iter(network.populations))
    hooks, applied = _make_faults(
        scenario, simulator, population, seed, flip_every, p_drop, sigma
    )
    result = simulator.run(steps, hooks=hooks)
    spikes = set()
    for name in network.populations:
        spikes |= result.spikes.result(name).spike_pairs()
    return spikes, applied()


def run(
    workload: str = "Izhikevich",
    scale: float = 0.02,
    steps: int = 200,
    seed: int = 7,
    backends: Optional[Sequence[str]] = None,
    flip_every: int = 50,
    p_drop: float = 0.05,
    sigma: float = 0.1,
) -> List[ResilienceRow]:
    """Stress ``workload`` with every fault scenario on each backend.

    Identical construction and stimulus seeds across scenarios mean a
    faulty run and its clean counterpart see the same inputs until the
    fault itself changes the dynamics.
    """
    rows: List[ResilienceRow] = []
    for backend_kind in backends if backends is not None else BACKENDS:
        clean_set, _ = _spike_set(
            workload, backend_kind, "none",
            scale, steps, seed, flip_every, p_drop, sigma,
        )
        for scenario in SCENARIOS:
            if scenario == "none":
                faulty_set, applied = clean_set, 0
            else:
                faulty_set, applied = _spike_set(
                    workload, backend_kind, scenario,
                    scale, steps, seed, flip_every, p_drop, sigma,
                )
            union = clean_set | faulty_set
            overlap = (
                len(clean_set & faulty_set) / len(union) if union else 1.0
            )
            rows.append(
                ResilienceRow(
                    backend=backend_kind,
                    scenario=scenario,
                    clean_spikes=len(clean_set),
                    faulty_spikes=len(faulty_set),
                    overlap=overlap,
                    faults_applied=applied,
                )
            )
    return rows


def format_resilience(rows: List[ResilienceRow]) -> str:
    """Render the resilience matrix as a report table."""
    table = []
    for row in rows:
        table.append(
            (
                row.backend,
                row.scenario,
                row.clean_spikes,
                row.faulty_spikes,
                f"{100 * row.overlap:.1f}%",
                f"{100 * row.rate_deviation:.1f}%",
                row.faults_applied,
            )
        )
    return format_table(
        [
            "Backend",
            "Scenario",
            "Clean spikes",
            "Faulty spikes",
            "Spike overlap",
            "Rate deviation",
            "Faults applied",
        ],
        table,
    )
