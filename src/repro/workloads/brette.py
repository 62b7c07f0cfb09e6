"""Brette et al. [28]: the simulator-review benchmark network.

Table I row: 2.4 K neurons, 2.4 M synapses, DLIF (conductance-based
LIF with reversal voltages), integrated with RKF45. The underlying
network is the classic COBA benchmark of the Brette et al. simulator
review — 80/20 random connectivity with conductance synapses.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.builders import ei_spec
from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    name="Brette et al.",
    paper_neurons=2_400,
    paper_synapses=2_400_000,
    model_name="DLIF",
    solver="RKF45",
    framework="NEST",
    description="COBA benchmark network from the simulator review",
)


def describe(scale: float) -> Dict:
    """Describe the Brette et al. network at the given scale."""
    return ei_spec(
        SPEC, scale, exc_weight=0.012,
        inh_weight=0.10,  # positive: inhibition acts through v_g[1] < 0
        stimulus_rate_hz=300.0, stimulus_weight=0.02,
    )
