"""NumericsGuard: fail-fast detection of numeric faults mid-run.

The paper's correctness story (Section VI-A) is that the fixed-point
datapaths reproduce the float reference's spikes exactly — a claim
that silently dies the moment any float path starts propagating
NaN/Inf or diverges. :class:`NumericsGuard` is a
:class:`~repro.engine.hooks.PhaseHook` that screens every population
runtime's live state after each neuron-computation phase and raises a
structured :class:`~repro.errors.NumericsError` — population, step,
variable and offending indices included — within one step of the state
going bad.

The screen itself is the per-runtime
:meth:`~repro.engine.runtime.PopulationRuntime.health` check, so any
backend that plugs into the runtime seam is guarded for free. Attach
with::

    guard = NumericsGuard(simulator.backend)
    simulator.run(n_steps, hooks=[guard])
"""

from __future__ import annotations

from repro.engine.hooks import PhaseHook
from repro.errors import NumericsError
from repro.network.backends import RuntimeBackend

__all__ = ["MAX_REPORTED_INDICES", "NumericsGuard"]

#: How many offending indices a :class:`NumericsError` carries at most.
MAX_REPORTED_INDICES = 16


class NumericsGuard(PhaseHook):
    """Raises :class:`NumericsError` when any runtime of ``backend``
    holds a non-finite value or one beyond
    :data:`~repro.engine.runtime.DIVERGENCE_LIMIT`."""

    def __init__(self, backend: RuntimeBackend) -> None:
        self.backend = backend
        #: Health screens performed so far (tests/monitoring).
        self.checks = 0

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        if phase != "neuron":
            return
        for name, runtime in self.backend.runtimes.items():
            self.checks += 1
            report = runtime.health()
            if report is None:
                continue
            variable, indices = report
            shown = [int(i) for i in indices[:MAX_REPORTED_INDICES]]
            raise NumericsError(
                f"population {name!r} has non-finite or divergent state "
                f"in {variable!r} at step {step} "
                f"({indices.size} neurons, first {shown})",
                population=name,
                step=step,
                variable=variable,
                indices=shown,
            )
