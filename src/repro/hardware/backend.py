"""Network-simulator backends running neuron computation on Flexon.

These backends plug the fixed-point digital-neuron models into the
three-phase simulator: the synapse-calculation and stimulus phases stay
on the host (as in the paper's system model, where Flexon accelerates
neuron computation only), while each population's neuron updates run on
a baseline (:class:`~repro.hardware.flexon.FlexonNeuron`) or folded
(:class:`~repro.hardware.folded.FoldedFlexonNeuron`) array model. The
two share one register file, so a runtime's read-out, checkpoint
payload and cycle count are written once, whichever array it holds.

All of them execute through the engine layer's
:class:`~repro.engine.runtime.PopulationRuntime` seam:
:class:`HardwareRuntime` adapts one compiled array model — quantise the
accumulated input, step the fixed-point datapaths — so the hardware
backends share the exact per-step arithmetic they had before the
refactor (the flexon/folded bit-identity tests pin this down).

:class:`HybridBackend` implements the Section VII-A fallback: models
the compiler cannot express (e.g. Hodgkin-Huxley) stay on the
general-purpose software solver, while supported populations are
offloaded to Flexon — the paper's mixed AdEx + HH scenario.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.runtime import PopulationRuntime, SolverRuntime
from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.fixedpoint import (
    SaturationStats,
    SegmentedStats,
    fx_from_float,
    fx_record_proved,
    observe_saturation,
)
from repro.hardware.compiler import CompiledModel, FlexonCompiler
from repro.models.base import State
from repro.network.backends import RuntimeBackend, model_key
from repro.network.population import Population
from repro.solvers import canonical_solver_name


class HardwareRuntime(PopulationRuntime):
    """One population on a digital-neuron array model.

    Owns the compiled model and the baseline (``folded=False``) or
    folded functional array. ``advance`` is the one way float input
    enters an array: it pre-scales and quantises the input into
    preallocated scratch (an input whose extremes quantise inside the
    format needs no clip scan; any other takes ``fx_from_float``), then
    runs one hardware step. The dt the constants were baked for is
    enforced per call.

    Every step runs under saturation accounting: any value the
    fixed-point datapaths clip (rather than represent) is counted per
    format in ``saturation_stats``, so a run can *report* how often the
    hardware silently saturated — the observable form of the paper's
    "chosen formats never saturate" claim.

    The paper's arrays time-multiplex every logical neuron of a network
    through one datapath, and so does a fused block: one runtime over
    all the columns, :meth:`split` into one member per population. A
    member's ``neuron`` is a column view of the block's, and its
    ``saturation_stats`` are its own: the block's sink hands every
    record to the members, ``checked`` by size and ``clipped`` by where
    the clip fell.
    """

    def __init__(
        self, name: str, n: int, compiled: CompiledModel, dt: float, folded: bool
    ):
        super().__init__(name, n)
        self.compiled = compiled
        self.dt = dt
        self.folded = folded
        make = compiled.instantiate_folded if folded else compiled.instantiate_flexon
        self.neuron = make(n)
        #: Per-format clip counts accumulated across every step so far.
        self.saturation_stats = SaturationStats()
        # Quantisation scratch: the scaled float inputs, the raw words.
        shape = (compiled.constants.n_synapse_types, n)
        self._scaled = np.empty(shape)
        self._raw = np.empty(shape, dtype=np.int64)
        # The format's scale is a power of two, so multiplying by the
        # product of the two factors rounds exactly as multiplying by
        # one and then the other did.
        self._input_scale = compiled.weight_scale * compiled.constants.fmt.scale

    def split(
        self, members: Sequence[Tuple[str, int, int]]
    ) -> List["HardwareRuntime"]:
        views = []
        for name, lo, hi in members:
            view = copy.copy(self)
            view.name, view.n, view.block = name, hi - lo, self
            view.neuron = self.neuron.view(lo, hi)
            view.saturation_stats = SaturationStats()
            views.append(view)
        self.saturation_stats = SegmentedStats(
            [
                (lo, hi, view.saturation_stats)
                for (_, lo, hi), view in zip(members, views)
            ]
        )
        return views

    def advance(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        if self.block is not None:
            raise self._refuse_member_advance()
        if abs(dt - self.dt) > 1e-15:
            raise SimulationError(
                f"backend compiled for dt={self.dt}, asked to step dt={dt}; "
                "constants are baked per time step"
            )
        fmt, scaled = self.compiled.constants.fmt, self._scaled
        with observe_saturation(self.saturation_stats):
            if inputs.shape == scaled.shape and scaled.size:
                np.multiply(inputs, self._input_scale, out=scaled)
                # ``floor(x + 0.5)`` is monotone, so the extremes' raw
                # words bound the array's: for an integer bound,
                # ``floor(y) >= raw_min`` iff ``y >= raw_min`` and
                # ``floor(y) <= raw_max`` iff ``y < raw_max + 1``. NaN and
                # inf fail both tests.
                if (
                    fmt.raw_min <= scaled.min() + 0.5
                    and scaled.max() + 0.5 < fmt.raw_max + 1
                ):
                    np.add(scaled, 0.5, out=scaled)
                    np.floor(scaled, out=scaled)
                    np.copyto(self._raw, scaled, casting="unsafe")
                    fx_record_proved(fmt, scaled.size)
                    return self._step_neuron(self._raw)
            raw = fx_from_float(inputs * self.compiled.weight_scale, fmt)
            return self._step_neuron(raw)

    def _step_neuron(self, raw: np.ndarray) -> np.ndarray:
        """One quantised hardware step (monitoring subclasses wrap this)."""
        return self.neuron.step(raw)

    def state(self) -> State:
        return self.neuron.float_state()

    def publish_metrics(self, metrics) -> None:
        super().publish_metrics(metrics)
        labels = {"population": self.name, "runtime": "hardware"}
        metrics.counter(
            "fixedpoint_saturation_checked_total",
            "Values screened by the saturation accounting.",
            labels,
        ).set_total(self.saturation_stats.checked)
        for fmt, clipped in self.saturation_stats.clipped.items():
            metrics.counter(
                "fixedpoint_saturation_clipped_total",
                "Values the fixed-point datapaths clipped.",
                {"population": self.name, "format": fmt.describe()},
            ).set_total(clipped)
        if self.block is None:
            self.publish_block_metrics(metrics)

    def publish_block_metrics(self, metrics) -> None:
        """Counters of the stepped array as a whole. The enclosure of a
        saturation point spans every column, so whether it was proved or
        scanned is a fact about the block, not about a member."""
        if self.folded:
            # Did the range proof ever fail on this run, and where?
            block = {"population": self.name}
            metrics.counter(
                "fixedpoint_saturation_proved_total",
                "Saturation points an enclosure proved in range.",
                block,
            ).set_total(self.neuron.points_proved)
            metrics.counter(
                "fixedpoint_saturation_scanned_total",
                "Saturation points that had to scan their array.",
                block,
            ).set_total(self.neuron.points_scanned)

    def snapshot(self) -> Dict[str, object]:
        return {"kind": "hardware", "neuron": self.neuron.snapshot()}

    def restore(self, payload: Dict[str, object]) -> None:
        try:
            self.neuron.restore(payload.get("neuron"))
        except SimulationError as error:
            raise CheckpointError(
                f"cannot restore {self.name!r}: {error}"
            ) from error

    @property
    def cycles_per_neuron(self) -> int:
        """Pipeline occupancy per logical neuron for one step."""
        return self.neuron.cycles_per_neuron


class _HardwareBackendBase(RuntimeBackend):
    """Shared compile/advance plumbing of the hardware backends."""

    folded = False
    compiler = FlexonCompiler()

    def __init__(self, dt: float = 1e-4):
        super().__init__()
        self.dt = dt

    def block_key(self, population: Population):
        return model_key(population.model)

    def build_runtime(self, population: Population) -> PopulationRuntime:
        model = population.model
        try:
            compiled = self.compiler.compile(model, self.dt)
        except ConfigurationError as error:
            raise ConfigurationError(
                f"population {population.name!r}: model {model.name!r}: {error}"
            ) from error
        return HardwareRuntime(
            population.name, population.n, compiled, self.dt, self.folded
        )

    def cycles_per_neuron(self, population: str) -> int:
        """Pipeline occupancy per logical neuron for one step."""
        runtime = self.runtime(population)
        assert isinstance(runtime, HardwareRuntime)
        return runtime.cycles_per_neuron


class FlexonBackend(_HardwareBackendBase):
    """Neuron computation on baseline (single-cycle) Flexon."""

    folded = False
    name = "flexon"


class FoldedFlexonBackend(_HardwareBackendBase):
    """Neuron computation on spatially folded Flexon."""

    folded = True
    name = "folded-flexon"


class HybridBackend(_HardwareBackendBase):
    """Flexon for supported models, reference solver for the rest.

    The Section VII-A scenario: "when an SNN consists of both the
    supported and the unsupported neuron models (e.g., a mixture of
    AdEx and HH), we can still accelerate SNN simulations by offloading
    the supported neuron models to Flexon." With the runtime seam the
    split is per population: supported ones get a folded
    :class:`HardwareRuntime` (and fuse as on the folded backend; an
    unsupported model has no :func:`model_key`, so it never does), the
    rest the dict-state :class:`~repro.engine.runtime.SolverRuntime`.
    """

    folded = True
    name = "hybrid"

    def __init__(self, dt: float = 1e-4, solver: str = "Euler"):
        super().__init__(dt)
        self.solver_name = canonical_solver_name(solver)
        #: population -> whether it runs on the digital-neuron array.
        self.offloaded: Dict[str, bool] = {}

    def prepare(self, network) -> None:
        super().prepare(network)
        self.offloaded = {
            name: isinstance(runtime, HardwareRuntime)
            for name, runtime in self.runtimes.items()
        }

    def build_runtime(self, population: Population) -> PopulationRuntime:
        if self.compiler.supports(population.model):
            return super().build_runtime(population)
        return SolverRuntime(
            population.name, population.n, population.model, self.solver_name
        )

    def cycles_per_neuron(self, population: str) -> int:
        """Pipeline occupancy per neuron; none on the software solver."""
        if self.offloaded.get(population, True):
            return super().cycles_per_neuron(population)
        return 0

    def offloaded_fraction(self) -> float:
        """Fraction of neurons running on the digital-neuron array."""
        if self.network is None:
            return 0.0
        total = self.network.n_neurons
        if total == 0:
            return 0.0
        on_hw = sum(
            population.n
            for name, population in self.network.populations.items()
            if self.offloaded.get(name)
        )
        return on_hw / total
