"""The engine layer: compile-once/step-many simulation machinery.

This package is the seam between the network description and the code
that actually advances neuron state. It has two parts:

* :mod:`repro.engine.runtime` — ``PopulationRuntime``: the common
  execution interface every backend (reference, Flexon, folded,
  event-driven, hybrid) steps populations through. ``CompiledRuntime``
  lowers a feature model's ``FeatureSet`` + ``ModelParameters`` +
  ``dt`` into in-place kernels over one state block, under Euler or
  RKF45 (``supports_lowering`` says which models lower);
  ``SolverRuntime`` is the dict-state oracle and the fallback for
  every other model;
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
    supports_lowering,
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
    "supports_lowering",
]
