"""Reliability layer: guardrails, degradation, checkpointing, faults.

Large-scale SNN stacks (NEST, GeNN) treat numeric trouble as something
to detect, account for, and survive — not something to assume away.
This package gives the reproduction the same discipline, wired through
the engine layer's ``PopulationRuntime`` / ``PhaseHook`` seams:

* :mod:`~repro.reliability.guard` — :class:`NumericsGuard`, a hook
  that screens every runtime's state and raises a structured
  :class:`~repro.errors.NumericsError` within one step of NaN/Inf or
  divergence appearing;
* :mod:`~repro.reliability.fallback` — :class:`FallbackRuntime`, the
  degrade policy: re-seat a faulting compiled population onto the
  verbatim solver path mid-run and record the event;
* :mod:`~repro.reliability.checkpoint` — :class:`Checkpoint` /
  :class:`CheckpointHook`: capture and bit-identically resume any
  simulation on any backend (``python -m repro run --checkpoint-every
  / --resume-from``);
* :mod:`~repro.reliability.faults` — :class:`FaultInjector` and
  sustained fault-process hooks, quantifying the robustness envelope
  (:mod:`repro.experiments.resilience`);
* :mod:`~repro.reliability.diagnostics` — the structured
  :class:`RunDiagnostics` every ``SimulationResult`` now carries.

Exports resolve lazily (PEP 562): the simulator imports the leaf
:mod:`~repro.reliability.diagnostics` module so every result can carry
diagnostics, while :mod:`~repro.reliability.checkpoint` and
:mod:`~repro.reliability.faults` import the simulator. Eager package
imports here would close that cycle; deferring them until first
attribute access keeps both directions working.
"""

import importlib

_EXPORTS = {
    "BitFlip": "repro.reliability.faults",
    "BitFlipFault": "repro.reliability.faults",
    "CHECKPOINT_VERSION": "repro.reliability.checkpoint",
    "Checkpoint": "repro.reliability.checkpoint",
    "CheckpointHook": "repro.reliability.checkpoint",
    "FallbackEvent": "repro.reliability.diagnostics",
    "FallbackRuntime": "repro.reliability.fallback",
    "FaultInjector": "repro.reliability.faults",
    "InputPerturbFault": "repro.reliability.faults",
    "NumericsGuard": "repro.reliability.guard",
    "RunDiagnostics": "repro.reliability.diagnostics",
    "SpikeDropFault": "repro.reliability.faults",
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
