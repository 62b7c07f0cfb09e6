"""NumericsGuard: fail-fast detection of numeric faults mid-run.

The paper's correctness story (Section VI-A) is that the fixed-point
datapaths reproduce the float reference's spikes exactly — a claim
that silently dies the moment any float path starts propagating
NaN/Inf or diverges. :class:`NumericsGuard` is a
:class:`~repro.engine.hooks.PhaseHook` that screens every population
runtime's live state after each neuron-computation phase (or every
``check_every`` steps for long runs) and raises a structured
:class:`~repro.errors.NumericsError` — population, step, variable and
offending indices included — within one step of the state going bad.

The screen itself is the per-runtime
:meth:`~repro.engine.runtime.PopulationRuntime.health` check, so any
backend that plugs into the runtime seam is guarded for free. Attach
with::

    guard = NumericsGuard(simulator.backend)
    simulator.run(n_steps, hooks=[guard])

For the degrade-instead-of-die policy, see
:class:`~repro.reliability.fallback.FallbackRuntime`.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.hooks import PhaseHook
from repro.engine.runtime import DIVERGENCE_LIMIT
from repro.errors import NumericsError, SimulationError
from repro.network.backends import RuntimeBackend
from repro.reliability.diagnostics import MAX_REPORTED_INDICES

__all__ = ["MAX_REPORTED_INDICES", "NumericsGuard"]


class NumericsGuard(PhaseHook):
    """Raises :class:`NumericsError` when any runtime's state goes bad.

    Parameters
    ----------
    backend:
        The simulator's backend.
    check_every:
        Screen only every N-th step (1 = every step). Detection latency
        grows to N steps; the per-step cost shrinks accordingly.
    limit:
        Absolute state value treated as divergence, or ``None`` to
        check finiteness only.
    """

    def __init__(
        self,
        backend: RuntimeBackend,
        check_every: int = 1,
        limit: Optional[float] = DIVERGENCE_LIMIT,
    ) -> None:
        if check_every < 1:
            raise SimulationError(
                f"check_every must be >= 1, got {check_every}"
            )
        self.backend = backend
        self.check_every = check_every
        self.limit = limit
        #: Health screens performed so far (tests/monitoring).
        self.checks = 0

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        if phase != "neuron" or step % self.check_every:
            return
        for name, runtime in self.backend.runtimes.items():
            self.checks += 1
            report = runtime.health(self.limit)
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
