"""The two Vogels workloads of Table I.

* **Vogels et al. [35]** — 10 K neurons, 1.92 M synapses, DLIF, RKF45:
  the inhibitory-plasticity network in which inhibition is tuned to
  balance excitation (we build it at its balanced operating point).
* **Vogels-Abbott [36]** — 4 K neurons, 320 K synapses, DLIF, RKF45:
  the signal-propagation/logic-gating network, a sparse conductance-
  based E/I network in the self-sustained irregular regime.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.builders import ei_spec
from repro.workloads.spec import WorkloadSpec

VOGELS_SPEC = WorkloadSpec(
    name="Vogels et al.",
    paper_neurons=10_000,
    paper_synapses=1_920_000,
    model_name="DLIF",
    solver="RKF45",
    framework="NEST",
    description="inhibition-balanced sensory-pathway network",
)

VOGELS_ABBOTT_SPEC = WorkloadSpec(
    name="Vogels-Abbott",
    paper_neurons=4_000,
    paper_synapses=320_000,
    model_name="DLIF",
    solver="RKF45",
    framework="NEST",
    description="signal propagation and logic gating network",
)


def describe_vogels(scale: float) -> Dict:
    """Vogels et al.: balanced E/I with strong tuned inhibition."""
    return ei_spec(
        VOGELS_SPEC, scale, exc_weight=0.012, inh_weight=0.15,
        stimulus_rate_hz=350.0, stimulus_weight=0.02, n_stimulus_sources=15,
    )


def describe_vogels_abbott(scale: float) -> Dict:
    """Vogels-Abbott: sparse self-sustained irregular activity."""
    return ei_spec(
        VOGELS_ABBOTT_SPEC, scale, exc_weight=0.02, inh_weight=0.18,
        stimulus_rate_hz=250.0, stimulus_weight=0.03, n_stimulus_sources=10,
    )
