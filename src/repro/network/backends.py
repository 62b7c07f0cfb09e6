"""Simulation backends: who performs the neuron-computation phase.

The paper's framing is that the three phases of a time step are fixed,
but *where* neuron computation runs differs: on the CPU/GPU (NEST,
GeNN), or on a digital-neuron array. A :class:`RuntimeBackend` owns the
state of every population and advances it one step at a time.

Every backend in the repo executes through one seam:
:class:`RuntimeBackend` materialises
:class:`~repro.engine.runtime.PopulationRuntime` objects at ``prepare``
time, and ``advance``/``state_of`` simply delegate to them.
Registering a new backend means subclassing :class:`RuntimeBackend`
and implementing the single ``build_runtime`` hook.

What is stepped is a :class:`Block`: populations with equal models
(:func:`model_key`) share one runtime over all their columns and one
``advance`` call per step, the way the paper's arrays time-multiplex
every logical neuron through one datapath; ``runtimes[name]`` is then a
member view of that block (:meth:`PopulationRuntime.split`), so
everything per population keeps its name and shape. A population with
no equal, or on a runtime whose step is not column-wise, is a block of
one and is its own runtime. See DESIGN.md, "Blocks".

:class:`ReferenceBackend` is the float64 software backend — our
stand-in for Brian/NEST. Each population whose model lowers
(:func:`~repro.engine.runtime.supports_lowering`) runs on a
:class:`~repro.engine.runtime.CompiledRuntime` under the network's
solver: a step kernel under Euler (bit-identical to ``model.step``),
input jumps and a continuous flow on the RKF45 stepper's block under
RKF45 (bit-identical to ``model.derivatives``). Models that do not
lower, and every population under ``use_engine=False``, run on the
dict-state :class:`~repro.engine.runtime.SolverRuntime`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.engine.runtime import (
    CompiledRuntime,
    PopulationRuntime,
    SolverRuntime,
    supports_lowering,
)
from repro.errors import ConfigurationError, SimulationError
from repro.features import Feature
from repro.models.base import NeuronModel, State
from repro.models.feature_model import FeatureModel
from repro.network.network import Network
from repro.network.population import Population
from repro.solvers import canonical_solver_name, create_solver


def software_solver_runtime(
    population: Population, solver_name: str
) -> SolverRuntime:
    """One population on the dict-state solver, checked at build time.

    RKF45 integrates a model's continuous form between step boundaries,
    so a model without one (LID's linear decay is inherently discrete;
    a model may define no ``derivatives`` or no separate fire/reset
    phase) is rejected here rather than by a ``NotImplementedError``
    on step 0.
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
    return SolverRuntime(population.name, population.n, model, solver)


@dataclass(frozen=True)
class Block:
    """What one ``advance`` call steps: its name and the populations in
    it, each as ``(population, lo, hi)`` — its columns of the block's
    input and fired mask. A block of one is named for its population;
    a fused block joins its members' names with ``+``."""

    name: str
    members: Tuple[Tuple[str, int, int], ...]

    @property
    def n(self) -> int:
        """Neurons the block updates per step."""
        return self.members[-1][2]


def model_key(model: NeuronModel) -> Optional[Hashable]:
    """What two populations must have equal to step as one block.

    Equal class, features and parameters lower to the same plan
    constants, so one kernel over both populations' columns performs
    each population's own arithmetic. Models outside the feature
    family have no such key and never fuse.
    """
    if isinstance(model, FeatureModel):
        return type(model), model.features, model.parameters
    return None


class RuntimeBackend(abc.ABC):
    """Owns population state and runs the neuron-computation phase
    through population runtimes.

    ``prepare`` groups the populations into blocks by
    :meth:`block_key`, in network order, and builds one
    :class:`PopulationRuntime` per block via the subclass's
    :meth:`build_runtime` hook; everything else is shared delegation
    (with the same error behaviour the seed backends had).
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.network: Optional[Network] = None
        self._runtimes: Dict[str, PopulationRuntime] = {}
        self._blocks: List[Block] = []
        self._block_runtimes: Dict[str, PopulationRuntime] = {}

    @abc.abstractmethod
    def build_runtime(self, population: Population) -> PopulationRuntime:
        """Materialise the execution engine for one population — or for
        the populations of one block, presented as one."""

    def block_key(self, population: Population) -> Optional[Hashable]:
        """Populations with equal keys step as one block; ``None`` (the
        default) keeps a population in a block of its own. A backend
        returns :func:`model_key` exactly where :meth:`build_runtime`
        yields a runtime that can :meth:`~PopulationRuntime.split`."""
        return None

    def prepare(self, network: Network) -> None:
        """Allocate state for every population of ``network``."""
        self.network = network
        groups: Dict[Hashable, List[Population]] = {}
        for population in network.populations.values():
            key = self.block_key(population)
            # Without a key a population is a group of its own.
            groups.setdefault(population if key is None else key, []).append(
                population
            )
        runtimes: Dict[str, PopulationRuntime] = {}
        self._blocks = []
        self._block_runtimes = {}
        for populations in groups.values():
            name = "+".join(p.name for p in populations)
            bounds = list(accumulate((p.n for p in populations), initial=0))
            members = tuple(
                (p.name, lo, hi)
                for p, lo, hi in zip(populations, bounds, bounds[1:])
            )
            if len(populations) == 1:
                runtime = runtimes[name] = self.build_runtime(populations[0])
            else:
                runtime = self.build_runtime(
                    Population(name, bounds[-1], populations[0].model)
                )
                for member, view in zip(populations, runtime.split(members)):
                    runtimes[member.name] = view
            self._blocks.append(Block(name, members))
            self._block_runtimes[name] = runtime
        self._runtimes = {name: runtimes[name] for name in network.populations}

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

    @property
    def blocks(self) -> List[Block]:
        """The neuron phase's schedule, in stepping order."""
        return self._blocks

    @property
    def block_runtimes(self) -> Dict[str, PopulationRuntime]:
        """The runtimes ``advance`` steps, keyed by block name: a
        population's own runtime, or the block its view is cut from."""
        return self._block_runtimes

    def advance(self, population: str, inputs: np.ndarray, dt: float) -> np.ndarray:
        """Advance one block (see :attr:`blocks`) one step; return the
        fired mask over its columns."""
        runtime = self._block_runtimes.get(population)
        if runtime is None:
            # Not a block: a fused member's view refuses (naming its
            # block); anything else is unknown or not prepared.
            runtime = self.runtime(population)
        return runtime.advance(inputs, dt)

    def state_of(self, population: str) -> State:
        """A float-valued view of one population's state (for recording)."""
        return self.runtime(population).state()

    def evaluations_per_step(self, population: str) -> float:
        """Solver evaluations charged per step (cost-model input)."""
        return self.runtime(population).evaluations_per_step()

    def publish_metrics(self, metrics) -> None:
        """Publish every runtime's counters into a telemetry registry."""
        for runtime in self._runtimes.values():
            runtime.publish_metrics(metrics)
        for block in self._blocks:
            if len(block.members) > 1:  # a block of one spoke above
                self._block_runtimes[block.name].publish_block_metrics(metrics)


class ReferenceBackend(RuntimeBackend):
    """Float64 software backend — our stand-in for Brian/NEST.

    The solver kind applies network-wide, which matches how Table I
    labels each workload "Euler" or "RKF45". ``use_engine`` selects
    between the lowered :class:`~repro.engine.runtime.CompiledRuntime`
    (default, for every model that lowers) and the dict-state
    :class:`~repro.engine.runtime.SolverRuntime` (``model.step`` /
    ``model.derivatives`` on dicts of arrays); the two are
    bit-identical, and the flag exists so tests and benchmarks can use
    the dict-state path as the oracle. Lowered populations with equal
    models step as one block under either solver (under RKF45 the
    stepper still accepts or rejects each member's substeps on its own
    columns); each population's solver counters read as its own.
    """

    def __init__(self, solver: str = "Euler", use_engine: bool = True):
        super().__init__()
        self.solver_name = canonical_solver_name(solver)
        self.use_engine = use_engine
        self.name = f"reference-{self.solver_name.lower()}"

    def _lowers(self, model: NeuronModel) -> bool:
        return self.use_engine and supports_lowering(model, self.solver_name)

    def block_key(self, population: Population) -> Optional[Hashable]:
        # Lowered populations fuse under both solvers; the dict-state
        # solver is the oracle and keeps a runtime per population.
        if self._lowers(population.model):
            return model_key(population.model)
        return None

    def build_runtime(self, population: Population) -> PopulationRuntime:
        if self._lowers(population.model):
            return CompiledRuntime(
                population.name,
                population.n,
                population.model,
                create_solver(self.solver_name),
            )
        return software_solver_runtime(population, self.solver_name)
