"""Potjans-Diesmann [34]: the cell-type-specific cortical microcircuit.

Table I row: 8 K neurons, 3 M synapses, DSRM0, forward Euler. The full
model has eight populations — excitatory and inhibitory cells in
layers 2/3, 4, 5 and 6 — with a measured layer-to-layer connectivity
matrix. We reproduce the eight-population structure with the
connectivity matrix condensed from the original paper (probabilities
rescaled to hit Table I's synapse count at scale 1.0) and layer-specific
external drive.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    name="Potjans-Diesmann",
    paper_neurons=8_000,
    paper_synapses=3_000_000,
    model_name="DSRM0",
    solver="Euler",
    framework="NEST",
    description="eight-population layered cortical microcircuit",
)

#: Population share of each layer group (condensed from the original).
LAYER_FRACTIONS: Dict[str, float] = {
    "L23e": 0.268, "L23i": 0.076,
    "L4e": 0.283, "L4i": 0.071,
    "L5e": 0.063, "L5i": 0.014,
    "L6e": 0.186, "L6i": 0.039,
}

#: Relative connection probabilities (pre -> post), condensed from the
#: Potjans-Diesmann Table 5 map; rescaled at build time so the total
#: synapse count matches the Table I row.
_P = {
    ("L23e", "L23e"): 0.101, ("L23e", "L23i"): 0.135,
    ("L23i", "L23e"): 0.169, ("L23i", "L23i"): 0.137,
    ("L4e", "L23e"): 0.088, ("L4e", "L4e"): 0.050, ("L4e", "L4i"): 0.079,
    ("L4i", "L4e"): 0.160, ("L4i", "L4i"): 0.160,
    ("L23e", "L5e"): 0.100, ("L5e", "L5e"): 0.083, ("L5e", "L5i"): 0.060,
    ("L5i", "L5e"): 0.373, ("L5i", "L5i"): 0.316,
    ("L5e", "L6e"): 0.057, ("L6e", "L6e"): 0.040, ("L6e", "L6i"): 0.066,
    ("L6i", "L6e"): 0.225, ("L6i", "L6i"): 0.144,
    ("L6e", "L4e"): 0.032, ("L4e", "L5e"): 0.051,
}


def describe(scale: float) -> Dict:
    """Describe the layered microcircuit at the given scale."""
    n_total = SPEC.scaled_neurons(scale)
    sizes = {
        layer: max(5, int(round(fraction * n_total)))
        for layer, fraction in LAYER_FRACTIONS.items()
    }
    # Rescale the probability map so total synapses match the spec.
    expected = sum(
        p * sizes[pre] * sizes[post] for (pre, post), p in _P.items()
    )
    target = SPEC.scaled_synapses(scale)
    rescale = min(4.0, target / max(1.0, expected))
    return {
        "populations": [
            {"name": layer, "n": size, "model": SPEC.model_name}
            for layer, size in sizes.items()
        ],
        "projections": [
            {
                "pre": pre, "post": post,
                "probability": min(1.0, p * rescale),
                # DSRM0 has no reversal voltages: inhibition is negative.
                "weight": -0.06 if pre.endswith("i") else 0.015,
                "syn_type": 1 if pre.endswith("i") else 0,
                "delay_steps": 8, "delay_jitter": 10,
            }
            for (pre, post), p in _P.items()
        ],
        # Layer-specific thalamic/background drive (L4 strongest).
        "stimuli": [
            {"kind": "poisson", "target": layer, "rate_hz": rate,
             "weight": 0.02, "n_sources": 20, "syn_type": 0}
            for layer, rate in (("L4e", 900.0), ("L4i", 900.0),
                                ("L23e", 500.0), ("L6e", 500.0))
        ],
    }
