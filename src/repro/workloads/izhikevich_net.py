"""Izhikevich [31]: the pulse-coupled 10 K network of the 2003 paper.

Table I row: 10 K neurons, 10 M synapses, Izhikevich's simple model,
simulated with GeNN (the "GPU" note) — i.e. forward Euler. The original
network mixes regular-spiking excitatory cells with fast-spiking
inhibitory cells at 80/20 and dense random coupling (p = 0.1).
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.builders import ei_spec
from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    name="Izhikevich",
    paper_neurons=10_000,
    paper_synapses=10_000_000,
    model_name="Izhikevich",
    solver="Euler",
    framework="GeNN",
    description="pulse-coupled network from Izhikevich (2003)",
)


def describe(scale: float) -> Dict:
    """Describe the Izhikevich network at the given scale."""
    return ei_spec(
        SPEC, scale, exc_weight=0.02, inh_weight=0.12,
        stimulus_rate_hz=400.0, stimulus_weight=0.04, n_stimulus_sources=15,
    )
