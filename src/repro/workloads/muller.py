"""Muller et al. [32]: high-conductance-state microcircuits.

Table I row: 1,728 neurons, 762 K synapses, PyNN's
IF_cond_exp_gsfa_grr (conductance LIF with spike-frequency adaptation
and relative refractory), RKF45. The model studies cortical neurons in
the high-conductance regime, driven by sustained synaptic bombardment —
hence the strong Poisson background here.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.builders import ei_spec
from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    name="Muller et al.",
    paper_neurons=1_728,
    paper_synapses=762_000,
    model_name="IF_cond_exp_gsfa_grr",
    solver="RKF45",
    framework="NEST",
    description="high-conductance-state cortical microcircuit",
)


def describe(scale: float) -> Dict:
    """Describe the Muller et al. network at the given scale."""
    return ei_spec(
        SPEC, scale, exc_weight=0.015, inh_weight=0.12,
        stimulus_rate_hz=600.0, stimulus_weight=0.02, n_stimulus_sources=25,
    )
