"""Simulation backends: who performs the neuron-computation phase.

The paper's framing is that the three phases of a time step are fixed,
but *where* neuron computation runs differs: on the CPU/GPU (NEST,
GeNN), or on a digital-neuron array. A :class:`Backend` owns the state
of every population and advances it one step at a time.

Since the engine refactor every backend in the repo executes through
one seam: :class:`RuntimeBackend` materialises a
:class:`~repro.engine.runtime.PopulationRuntime` per population at
``prepare`` time, and ``advance``/``state_of`` simply delegate to it.
Registering a new backend means subclassing :class:`RuntimeBackend`
and implementing the single ``build_runtime`` hook.

:class:`ReferenceBackend` is the float64 software backend — our
stand-in for Brian/NEST. With the Euler solver it compiles each
supported population into a
:class:`~repro.engine.runtime.CompiledRuntime` step plan (the
compile-once/step-many fast path, bit-identical to ``model.step``);
with RKF45 it lowers each supported population's continuous dynamics
into a flow plan run in place on the one RKF45 stepper
(:meth:`~repro.engine.runtime.SolverRuntime.lowered`, bit-identical to
``model.derivatives``). Models without a plan, and every population
under ``use_engine=False``, run on the dict-state
:class:`~repro.engine.runtime.SolverRuntime`.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.engine.runtime import (
    CompiledRuntime,
    PopulationRuntime,
    SolverRuntime,
)
from repro.engine.plan import supports_flow_plan, supports_step_plan
from repro.errors import ConfigurationError, SimulationError
from repro.features import Feature
from repro.models.base import NeuronModel, State
from repro.network.network import Network
from repro.network.population import Population
from repro.solvers import canonical_solver_name, create_solver


def software_solver_runtime(
    population: Population, solver_name: str, lowered: bool = False
) -> SolverRuntime:
    """One population on a software solver, checked at build time.

    RKF45 integrates a model's continuous form between step boundaries,
    so a model without one (LID's linear decay is inherently discrete;
    a model may define no ``derivatives`` or no separate fire/reset
    phase) is rejected here rather than by a ``NotImplementedError``
    on step 0. ``lowered`` asks for the flow-plan path where the model
    supports it.
    """
    model = population.model
    solver = create_solver(solver_name)
    if solver.name == "RKF45":
        reason = None
        if Feature.LID in getattr(model, "features", ()):
            reason = "its LID feature (linear decay) has no continuous form"
        elif type(model).derivatives is NeuronModel.derivatives:
            reason = "it defines no continuous dynamics"
        elif type(model).fire_and_reset is NeuronModel.fire_and_reset:
            reason = "it defines no separate fire/reset phase"
        if reason is not None:
            raise ConfigurationError(
                f"population {population.name!r}: model {model.name!r} "
                f"cannot be integrated with RKF45 — {reason}; "
                'use solver: "Euler"'
            )
        if lowered and supports_flow_plan(model):
            return SolverRuntime.lowered(
                population.name, population.n, model, solver
            )
    return SolverRuntime(population.name, population.n, model, solver)


class Backend(abc.ABC):
    """Owns population state and runs the neuron-computation phase."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.network: Optional[Network] = None

    @abc.abstractmethod
    def prepare(self, network: Network) -> None:
        """Allocate state for every population of ``network``."""

    @abc.abstractmethod
    def advance(self, population: str, inputs: np.ndarray, dt: float) -> np.ndarray:
        """Advance one population one step; return the fired mask."""

    @abc.abstractmethod
    def state_of(self, population: str) -> State:
        """A float-valued view of one population's state (for recording)."""

    def evaluations_per_step(self, population: str) -> float:
        """Solver evaluations charged per step (cost-model input)."""
        return 1.0

    def publish_metrics(self, metrics) -> None:
        """Publish backend counters into a telemetry registry.

        The base backend has nothing to report; runtime-seam backends
        delegate to each population runtime.
        """


class RuntimeBackend(Backend):
    """Base class for backends that execute through population runtimes.

    ``prepare`` builds one :class:`PopulationRuntime` per population via
    the subclass's :meth:`build_runtime` hook; everything else is shared
    delegation (with the same error behaviour the seed backends had).
    """

    def __init__(self) -> None:
        super().__init__()
        self._runtimes: Dict[str, PopulationRuntime] = {}

    @abc.abstractmethod
    def build_runtime(self, population: Population) -> PopulationRuntime:
        """Materialise the execution engine for one population."""

    def prepare(self, network: Network) -> None:
        self.network = network
        self._runtimes = {
            name: self.build_runtime(population)
            for name, population in network.populations.items()
        }

    def runtime(self, population: str) -> PopulationRuntime:
        """The live runtime of one population (errors match the seed)."""
        if self.network is None:
            raise SimulationError("backend not prepared; call prepare() first")
        try:
            return self._runtimes[population]
        except KeyError:
            raise SimulationError(
                f"unknown population {population!r}"
            ) from None

    @property
    def runtimes(self) -> Dict[str, PopulationRuntime]:
        """All population runtimes, keyed by population name."""
        return self._runtimes

    def advance(self, population: str, inputs: np.ndarray, dt: float) -> np.ndarray:
        return self.runtime(population).advance(inputs, dt)

    def state_of(self, population: str) -> State:
        return self.runtime(population).state()

    def evaluations_per_step(self, population: str) -> float:
        return self.runtime(population).evaluations_per_step()

    def publish_metrics(self, metrics) -> None:
        for runtime in self._runtimes.values():
            runtime.publish_metrics(metrics)


class ReferenceBackend(RuntimeBackend):
    """Float64 software backend — our stand-in for Brian/NEST.

    One runtime per population (they keep independent evaluation
    counters). The solver kind applies network-wide, which matches how
    Table I labels each workload "Euler" or "RKF45". ``use_engine``
    selects between the compiled fast path (default: a step plan under
    Euler, a flow plan under RKF45) and the dict-state solver path
    (``model.step`` / ``model.derivatives`` on dicts of arrays); the
    two are bit-identical, and the flag exists so tests and benchmarks
    can use the dict-state path as the oracle.

    ``fault_policy`` decides what happens when a compiled population's
    state goes numerically bad mid-run: ``"propagate"`` (default) lets
    the fault surface — attach a
    :class:`~repro.reliability.guard.NumericsGuard` to turn it into a
    structured error — while ``"fallback"`` wraps each compiled runtime
    in a :class:`~repro.reliability.fallback.FallbackRuntime` that
    re-seats the population onto the verbatim solver path and records
    the event in ``SimulationResult.diagnostics``.
    """

    FAULT_POLICIES = ("propagate", "fallback")

    def __init__(
        self,
        solver: str = "Euler",
        use_engine: bool = True,
        fault_policy: str = "propagate",
    ):
        super().__init__()
        if fault_policy not in self.FAULT_POLICIES:
            raise ConfigurationError(
                f"unknown fault_policy {fault_policy!r} "
                f"(choose from {', '.join(self.FAULT_POLICIES)})"
            )
        self.solver_name = canonical_solver_name(solver)
        self.use_engine = use_engine
        self.fault_policy = fault_policy
        self.name = f"reference-{self.solver_name.lower()}"

    def _solver_runtime(self, population: Population) -> SolverRuntime:
        return software_solver_runtime(
            population, self.solver_name, lowered=self.use_engine
        )

    def build_runtime(self, population: Population) -> PopulationRuntime:
        model = population.model
        if (
            self.use_engine
            and self.solver_name == "Euler"
            and supports_step_plan(model)
        ):
            compiled = CompiledRuntime(population.name, population.n, model)
            if self.fault_policy == "fallback":
                # Imported here: the reliability package reaches back
                # into the network layer, so a module-level import
                # would be a cycle at package init.
                from repro.reliability.fallback import FallbackRuntime

                return FallbackRuntime(
                    compiled, lambda: self._solver_runtime(population)
                )
            return compiled
        return self._solver_runtime(population)
