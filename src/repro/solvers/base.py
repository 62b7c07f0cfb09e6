"""Solver interface.

A solver advances one population's state by one simulation time step,
given the accumulated synaptic input for that step, and reports which
neurons fired. It also tracks how many derivative evaluations it has
performed — the CPU/GPU cost models charge neuron computation by
evaluation count, which is how Euler-vs-RKF45 shows up in Figure 3.

Solvers run inside the engine layer's
:class:`~repro.engine.runtime.SolverRuntime`: one solver instance per
population. Euler-integrated feature models usually bypass the solver
entirely via :class:`~repro.engine.runtime.CompiledRuntime`'s compiled
kernel (bit-identical, faster). RKF45-integrated feature models keep
their solver — it owns the tolerances and the evaluation counters — but
run its stepper over the kernels of
:meth:`~repro.engine.runtime.SolverRuntime.lowered` instead of calling
:meth:`Solver.advance`. ``advance`` itself, driving
dict-of-arrays state through ``model.step`` / ``model.derivatives``,
is what models with private semantics run on, and what
``ReferenceBackend(use_engine=False)`` selects for every population
under either solver: the oracle both lowerings are pinned against.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.models.base import NeuronModel, State


class Solver(abc.ABC):
    """Advances neuron dynamics one simulation time step at a time."""

    #: Canonical name as spelled in Table I ("Euler" / "RKF45").
    name: str = "abstract"

    def __init__(self) -> None:
        #: Total derivative (or step-function) evaluations performed.
        self.evaluations = 0
        #: Total advance() calls performed.
        self.advances = 0

    @abc.abstractmethod
    def advance(
        self,
        model: NeuronModel,
        state: State,
        inputs: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """Advance ``state`` by ``dt`` in place; return the fired mask."""

    def evaluations_per_step(self) -> float:
        """Average evaluations charged per advance() call so far."""
        if self.advances == 0:
            return 1.0
        return self.evaluations / self.advances

    def reset_counters(self) -> None:
        """Zero the counters (e.g. between profiling runs)."""
        self.evaluations = 0
        self.advances = 0
