"""The engine layer: compile-once/step-many simulation machinery.

This package is the seam between the network description and the code
that actually advances neuron state. It has three parts:

* :mod:`repro.engine.plan` — ``StepPlan``: a population's
  ``FeatureSet`` + ``ModelParameters`` + ``dt`` lowered, at prepare
  time, into a flat update recipe with every per-step scalar
  precomputed; and ``FlowPlan``, the same lowering of the
  continuous-time dynamics for adaptive (RKF45) integration;
* :mod:`repro.engine.runtime` — ``PopulationRuntime``: the common
  execution interface every backend (reference, Flexon, folded,
  event-driven, hybrid) steps populations through, with the
  plan-driven ``CompiledRuntime`` fast path and the ``SolverRuntime``
  (dict-state fallback, or lowered onto a ``FlowPlan`` under RKF45);
* :mod:`repro.engine.hooks` — ``PhaseHook``: pluggable per-phase
  instrumentation for the simulator loop.
"""

from repro.engine.hooks import (
    PHASES,
    HookError,
    PhaseHook,
    PhaseStats,
    PhaseTimer,
)
from repro.engine.plan import (
    FlowPlan,
    StepPlan,
    compile_flow_plan,
    compile_step_plan,
    supports_flow_plan,
    supports_step_plan,
)
from repro.engine.runtime import CompiledRuntime, PopulationRuntime, SolverRuntime

__all__ = [
    "PHASES",
    "CompiledRuntime",
    "FlowPlan",
    "HookError",
    "PhaseHook",
    "PhaseStats",
    "PhaseTimer",
    "PopulationRuntime",
    "SolverRuntime",
    "StepPlan",
    "compile_flow_plan",
    "compile_step_plan",
    "supports_flow_plan",
    "supports_step_plan",
]
