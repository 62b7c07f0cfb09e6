"""Destexhe [30]: self-sustained irregular states and Up/Down states.

Two Table I rows come from this work, both using the adaptive
exponential integrate-and-fire model with RKF45:

* **Destexhe-LTS** — 500 neurons, 20 K synapses. A thalamocortical
  network whose inhibitory population contains low-threshold-spiking
  (LTS) cells: stronger adaptation coupling sustains rebound activity.
* **Destexhe-UpDown** — 2.5 K neurons, 100 K synapses, "a variation of
  AdEx": large slow adaptation makes the network alternate between
  active Up states and silent Down states.

Both use three synapse types (AMPA, NMDA, GABA — the paper's example
of SNNs with more than two types), which is also what makes their
folded-Flexon microprograms long enough that the single-cycle baseline
Flexon wins on latency for exactly these two workloads (Section VI-C).
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.builders import ei_spec
from repro.workloads.spec import WorkloadSpec

LTS_SPEC = WorkloadSpec(
    name="Destexhe-LTS",
    paper_neurons=500,
    paper_synapses=20_000,
    model_name="AdEx",
    solver="RKF45",
    framework="NEST",
    description="thalamocortical network with LTS interneurons",
)

UPDOWN_SPEC = WorkloadSpec(
    name="Destexhe-UpDown",
    paper_neurons=2_500,
    paper_synapses=100_000,
    model_name="AdEx",
    solver="RKF45",
    framework="NEST",
    description="AdEx variation alternating Up and Down states",
)


def _adex_parameters(tau_w: float, a: float, b: float) -> Dict:
    """Overrides of AdEx's defaults for a three-synapse-type variant."""
    return {
        "n_synapse_types": 3,
        "tau_g": (5e-3, 100e-3, 10e-3),  # AMPA, NMDA, GABA
        "v_g": (4.33, 4.33, -1.0),
        "tau_w": tau_w,
        "a": a,
        "b": b,
        "t_ref": 2.5e-3,
    }


def describe_lts(scale: float) -> Dict:
    """Destexhe-LTS: rebound-prone AdEx with strong subthreshold a."""
    return ei_spec(
        LTS_SPEC, scale, exc_weight=0.02, inh_weight=0.40,
        stimulus_rate_hz=400.0, stimulus_weight=0.18,
        parameters=_adex_parameters(tau_w=200e-3, a=-0.08, b=0.05),
    )


def describe_updown(scale: float) -> Dict:
    """Destexhe-UpDown: slow, strong spike-triggered adaptation."""
    return ei_spec(
        UPDOWN_SPEC, scale, exc_weight=0.04, inh_weight=0.20,
        stimulus_rate_hz=250.0, stimulus_weight=0.09,
        parameters=_adex_parameters(tau_w=500e-3, a=-0.02, b=0.12),
    )
