"""Reliability layer: guardrails, checkpointing, run diagnostics.

Large-scale SNN stacks (NEST, GeNN) treat numeric trouble as something
to detect and account for, not something to assume away. This package
gives the reproduction the same discipline, wired through the engine
layer's ``PopulationRuntime`` / ``PhaseHook`` seams:

* :mod:`~repro.reliability.guard` — :class:`NumericsGuard`, a hook
  that screens every runtime's state and raises a structured
  :class:`~repro.errors.NumericsError` within one step of NaN/Inf or
  divergence appearing;
* :mod:`~repro.reliability.checkpoint` — :class:`Checkpoint` /
  :class:`CheckpointHook`: capture and bit-identically resume any
  simulation on any backend, every N steps and at a graceful
  interrupt (``python -m repro run --checkpoint-every /
  --resume-from``);
* :mod:`~repro.reliability.diagnostics` — the structured
  :class:`RunDiagnostics` every ``SimulationResult`` carries.

Exports resolve lazily (PEP 562): the simulator imports the leaf
:mod:`~repro.reliability.diagnostics` module so every result can carry
diagnostics, while :mod:`~repro.reliability.checkpoint` imports the
simulator. An eager package import here would close that cycle;
deferring it until first attribute access keeps both directions
working.
"""

import importlib

_EXPORTS = {
    "CHECKPOINT_VERSION": "repro.reliability.checkpoint",
    "Checkpoint": "repro.reliability.checkpoint",
    "CheckpointHook": "repro.reliability.checkpoint",
    "NumericsGuard": "repro.reliability.guard",
    "RunDiagnostics": "repro.reliability.diagnostics",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
