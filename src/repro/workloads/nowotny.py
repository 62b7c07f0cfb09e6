"""Nowotny et al. [33]: insect olfactory one-shot odour recognition.

Table I row: 1,220 neurons, 202 K synapses, Izhikevich model, GeNN
("GPU" note, forward Euler). The model is the antennal-lobe /
mushroom-body circuit: a projection-neuron population fans out onto a
larger Kenyon-cell population with strong lateral inhibition, which we
capture as an asymmetric two-population network with dense
feed-forward divergence.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.spec import WorkloadSpec, scaled_probability

SPEC = WorkloadSpec(
    name="Nowotny et al.",
    paper_neurons=1_220,
    paper_synapses=202_000,
    model_name="Izhikevich",
    solver="Euler",
    framework="GeNN",
    description="olfactory antennal-lobe / mushroom-body circuit",
)


def describe(scale: float) -> Dict:
    """Describe the Nowotny et al. network at the given scale."""
    n_total = SPEC.scaled_neurons(scale)
    # ~1:5 projection-neuron : Kenyon-cell split, plus inhibition.
    n_pn = max(10, n_total // 6)
    n_kc = max(20, n_total - 2 * n_pn)
    n_ln = max(5, n_total - n_pn - n_kc)
    p = scaled_probability(SPEC, scale)

    def projection(pre, post, fold, weight, syn_type, delay_jitter=5):
        return {
            "pre": pre, "post": post, "probability": min(1.0, fold * p),
            "weight": weight, "syn_type": syn_type, "delay_steps": 5,
            "delay_jitter": delay_jitter,
        }

    return {
        "populations": [
            {"name": name, "n": n, "model": SPEC.model_name}
            for name, n in (("pn", n_pn), ("kc", n_kc), ("ln", n_ln))
        ],
        "projections": [
            # Dense feed-forward divergence PN -> KC carries most synapses.
            projection("pn", "kc", 4, 0.03, 0, delay_jitter=10),
            projection("pn", "ln", 2, 0.03, 0),
            # Lateral inhibition from LNs onto both PN and KC layers.
            projection("ln", "pn", 2, 0.15, 1),
            projection("ln", "kc", 2, 0.15, 1),
        ],
        # Odour input drives the projection neurons.
        "stimuli": [
            {"kind": "poisson", "target": "pn", "rate_hz": 500.0,
             "weight": 0.05, "n_sources": 15, "syn_type": 0},
        ],
    }
