"""Brunel [29]: sparsely connected excitatory/inhibitory network.

Table I row: 5 K neurons, 2.5 M synapses, PyNN's IF_psc_alpha
(alpha-shaped post-synaptic currents), forward Euler. Brunel's network
is the canonical 80/20 sparse random network whose regimes (regular/
irregular, synchronous/asynchronous) depend on the inhibition-to-
excitation ratio g; we build the g = 5 inhibition-dominated regime.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.builders import ei_spec
from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    name="Brunel",
    paper_neurons=5_000,
    paper_synapses=2_500_000,
    model_name="IF_psc_alpha",
    solver="Euler",
    framework="NEST",
    description="sparse random E/I network, inhibition-dominated regime",
)


def describe(scale: float) -> Dict:
    """Describe the Brunel network at the given scale."""
    # IF_psc_alpha has no reversal voltages: inhibition needs negative
    # weights (the alpha-current kernel adds g directly to the drive).
    # Strong individual synapses with a weak-mean external drive put
    # the network in Brunel's fluctuation-driven asynchronous-irregular
    # state (CV of the ISI ~ 1, low population synchrony) — verified by
    # tests/network/test_analysis.py.
    return ei_spec(
        SPEC, scale, exc_weight=0.4,
        inh_weight=-2.0,  # g = 5
        stimulus_rate_hz=100.0, stimulus_weight=0.4, n_stimulus_sources=5,
    )
