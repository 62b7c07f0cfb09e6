"""The ten SNN workloads of Table I.

Each workload module describes the network of one prior-work SNN, as
front-end spec sections (:func:`spec_for` completes them): the same
neuron model, ODE solver, excitatory/inhibitory structure and
neuron:synapse ratio as the paper's Table I row. Sizes are *scalable*
(``scale=1.0`` reproduces the paper's counts; smaller scales keep CI
fast) — the experiment harnesses measure per-neuron/per-synapse rates
at a reduced scale and evaluate the cost models at full scale.
"""

from repro.workloads.spec import WorkloadSpec, validate_scale
from repro.workloads.registry import (
    WORKLOADS,
    build_workload,
    get_spec,
    spec_for,
    workload_names,
)

__all__ = [
    "WORKLOADS",
    "WorkloadSpec",
    "build_workload",
    "get_spec",
    "spec_for",
    "validate_scale",
    "workload_names",
]
