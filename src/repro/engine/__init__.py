"""The engine layer: compile-once/step-many simulation machinery.

This package is the seam between the network description and the code
that actually advances neuron state. It has two parts:

* :mod:`repro.engine.runtime` — ``PopulationRuntime``: the common
  execution interface every backend (reference, Flexon, folded,
  event-driven, hybrid) steps populations through. ``CompiledRuntime``
  lowers a feature model's ``FeatureSet`` + ``ModelParameters`` +
  ``dt`` into a flat Euler kernel; ``SolverRuntime`` is the dict-state
  fallback, or, under RKF45, the same lowering of the continuous-time
  dynamics (``supports_step_plan`` / ``supports_flow_plan`` say which
  models lower);
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
from repro.engine.runtime import (
    CompiledRuntime,
    PopulationRuntime,
    SolverRuntime,
    supports_flow_plan,
    supports_step_plan,
)

__all__ = [
    "PHASES",
    "CompiledRuntime",
    "HookError",
    "PhaseHook",
    "PhaseStats",
    "PhaseTimer",
    "PopulationRuntime",
    "SolverRuntime",
    "supports_flow_plan",
    "supports_step_plan",
]
