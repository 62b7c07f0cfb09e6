"""Event-driven execution analysis (the paper's LLIF rationale).

Section IV-A: LLIF "does not need multiplication units and is suitable
for event-driven execution, reducing hardware costs and energy
consumption." Event-driven execution skips the update of neurons whose
state cannot change: in fixed point, a neuron with every state variable
exactly at its rest value and no incoming weight this step is a *fixed
point* of the update — stepping it is the identity, so skipping it is
exact (unlike in floating point, where exponential decay only
asymptotically approaches rest, quantised decay reaches raw zero in
finitely many steps, so the skippable set is non-empty for every
Table III model, and immediately so for LLIF's clamped linear decay).

:class:`EventDrivenMonitor` wraps a hardware neuron, classifies each
neuron as active/idle per step, and accumulates the activity factor;
:func:`event_driven_power` scales a design's dynamic power by it. The
skip-is-identity invariant is verified by tests, so counting (rather
than literally skipping) is a sound energy model.
:class:`EventDrivenFlexonBackend` lifts the monitor to a full network
backend through the engine layer's ``PopulationRuntime`` seam, so
whole-workload activity factors can be measured with the ordinary
three-phase simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.features import Feature, FeatureSet
from repro.hardware.backend import HardwareRuntime, _HardwareBackendBase
from repro.hardware.flexon import FlexonNeuron
from repro.hardware.folded import FoldedFlexonNeuron

_HardwareNeuron = Union[FlexonNeuron, FoldedFlexonNeuron]


def supports_event_driven(features: FeatureSet) -> bool:
    """Whether a zero-state, zero-input neuron is a true fixed point.

    EXI contributes ``delta_T * eps_m * exp(-theta/delta_T)`` even at
    rest, and SBT drives ``w`` toward tracking ``v - v_w`` — both are
    nonzero at the all-zero state, so models carrying them always
    compute (the biological point of those features is precisely
    activity at rest). Every other combination — notably LLIF, the
    model the paper calls "suitable for event-driven execution" — has
    the all-zero state as an exact fixed point.
    """
    return not features.features & {Feature.EXI, Feature.SBT}


def _features_of(neuron: _HardwareNeuron) -> FeatureSet:
    if isinstance(neuron, FlexonNeuron):
        return neuron.features
    return neuron.program.features


def idle_mask(neuron: _HardwareNeuron, raw_inputs: np.ndarray) -> np.ndarray:
    """Neurons whose update this step is provably the identity.

    A neuron is idle when its model supports event-driven execution,
    it receives no input weight this step, and every architectural
    state variable sits exactly at its reset/rest value (raw zero; the
    refractory counter at zero).
    """
    if not supports_event_driven(_features_of(neuron)):
        return np.zeros(raw_inputs.shape[1], dtype=bool)
    idle = ~raw_inputs.any(axis=0)
    if isinstance(neuron, FlexonNeuron):
        for name, values in neuron.state.items():
            idle &= values == 0
    else:
        idle &= ~neuron.regs.any(axis=0)
        if neuron.cnt is not None:
            idle &= neuron.cnt == 0
    return idle


@dataclass
class EventDrivenMonitor:
    """Wraps a hardware neuron and tracks the activity factor."""

    neuron: _HardwareNeuron
    active_updates: int = 0
    total_updates: int = 0
    _last_idle: np.ndarray = field(default=None, repr=False)

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Step the wrapped neuron, recording how many were active."""
        idle = idle_mask(self.neuron, raw_inputs)
        self._last_idle = idle
        self.active_updates += int((~idle).sum())
        self.total_updates += idle.size
        return self.neuron.step(raw_inputs)

    @property
    def activity_factor(self) -> float:
        """Fraction of neuron updates that actually needed computing."""
        if self.total_updates == 0:
            return 1.0
        return self.active_updates / self.total_updates

    @property
    def last_idle_mask(self) -> np.ndarray:
        """The idle classification of the most recent step."""
        return self._last_idle


class EventDrivenRuntime(HardwareRuntime):
    """A hardware runtime whose every step is activity-classified.

    Identical numerics to :class:`HardwareRuntime` (the monitor only
    observes), with the population's activity factor accumulated across
    the run — the quantity :func:`event_driven_power` consumes.
    """

    def __init__(self, name, n, compiled, dt, folded):
        super().__init__(name, n, compiled, dt, folded)
        self.monitor = EventDrivenMonitor(self.neuron)

    def _step_neuron(self, raw: np.ndarray) -> np.ndarray:
        return self.monitor.step(raw)

    @property
    def activity_factor(self) -> float:
        return self.monitor.activity_factor

    def publish_metrics(self, metrics) -> None:
        super().publish_metrics(metrics)
        labels = {"population": self.name}
        metrics.gauge(
            "event_driven_activity_factor",
            "Fraction of neuron updates that actually needed computing.",
            labels,
        ).set(self.monitor.activity_factor)
        metrics.counter(
            "event_driven_active_updates_total",
            "Neuron updates classified as active (not skippable).",
            labels,
        ).set_total(self.monitor.active_updates)
        metrics.counter(
            "event_driven_total_updates_total",
            "Neuron updates classified by the event-driven monitor.",
            labels,
        ).set_total(self.monitor.total_updates)


class EventDrivenFlexonBackend(_HardwareBackendBase):
    """Flexon backend that tracks per-population activity factors.

    Spike trains are bit-identical to :class:`~repro.hardware.backend.
    FlexonBackend` / :class:`~repro.hardware.backend.FoldedFlexonBackend`
    (classification is observation-only); on top it reports which
    fraction of neuron updates actually needed computing — the
    event-driven energy model of the paper's LLIF discussion.
    """

    name = "event-driven-flexon"

    def __init__(self, dt: float = 1e-4, folded: bool = False):
        super().__init__(dt)
        self.folded = folded

    def block_key(self, population):
        # One monitor and one activity factor per population.
        return None

    def build_runtime(self, population):
        compiled = self.compiler.compile(population.model, self.dt)
        return EventDrivenRuntime(
            population.name, population.n, compiled, self.dt, self.folded
        )

    def activity_factor(self, population: str) -> float:
        """Fraction of one population's updates that were active."""
        runtime = self.runtime(population)
        assert isinstance(runtime, EventDrivenRuntime)
        return runtime.activity_factor

    def activity_factors(self) -> dict:
        """Activity factor of every prepared population."""
        return {
            name: runtime.activity_factor
            for name, runtime in self.runtimes.items()
        }


def event_driven_power(
    total_power_w: float,
    static_fraction: float,
    activity_factor: float,
) -> float:
    """Array power under event-driven scheduling.

    Static power (leakage plus always-on control/SRAM retention) is
    unaffected; dynamic power scales with the activity factor.
    """
    static = total_power_w * static_fraction
    dynamic = total_power_w - static
    return static + dynamic * activity_factor
