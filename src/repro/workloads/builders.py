"""Shared topology for the Table I workloads.

Most of the collected SNNs follow the cortical 80/20
excitatory/inhibitory recipe with random connectivity and Poisson
background drive; :func:`ei_spec` describes that shape as front-end
spec sections. The few structured workloads (Potjans-Diesmann's
layered microcircuit, Nowotny's olfactory circuit) write their own.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.workloads.spec import WorkloadSpec, scaled_probability


def ei_spec(
    workload: WorkloadSpec,
    scale: float,
    exc_weight: float,
    inh_weight: float,
    stimulus_rate_hz: float,
    stimulus_weight: float,
    n_stimulus_sources: int = 10,
    parameters: Optional[Dict] = None,
) -> Dict:
    """A standard 80/20 excitatory/inhibitory random network, as the
    ``populations``/``projections``/``stimuli`` of a front-end spec.

    ``exc_weight``/``inh_weight`` are in the model's input units
    (currents for CUB models, conductance jumps otherwise);
    ``inh_weight`` is applied on synapse type 1. ``parameters`` are
    model-parameter overrides shared by both populations.
    """
    n_total = workload.scaled_neurons(scale)
    n_exc = max(10, int(round(n_total * 0.8)))
    model = {"model": workload.model_name}
    if parameters:
        model["parameters"] = parameters
    p = scaled_probability(workload, scale)

    def projection(pre: str, post: str, weight: float, syn_type: int):
        return {
            "pre": pre, "post": post, "probability": p, "weight": weight,
            "weight_std": abs(weight) * 0.1, "syn_type": syn_type,
            "delay_steps": 10, "delay_jitter": 10,
        }

    return {
        "populations": [
            {"name": "exc", "n": n_exc, **model},
            {"name": "inh", "n": max(5, n_total - n_exc), **model},
        ],
        "projections": [
            projection("exc", "exc", exc_weight, 0),
            projection("exc", "inh", exc_weight, 0),
            projection("inh", "exc", inh_weight, 1),
            projection("inh", "inh", inh_weight, 1),
        ],
        "stimuli": [
            {"kind": "poisson", "target": "exc", "rate_hz": stimulus_rate_hz,
             "weight": stimulus_weight, "n_sources": n_stimulus_sources,
             "syn_type": 0},
        ],
    }
