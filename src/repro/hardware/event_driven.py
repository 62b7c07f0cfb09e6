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

:class:`EventDrivenRuntime` is a hardware runtime (either array: both
name their state rows alike) that classifies each neuron as active or
idle per step and accumulates the activity factor;
:func:`event_driven_power` scales a design's dynamic power by it. The
skip-is-identity invariant is verified by tests, so counting (rather
than literally skipping) is a sound energy model. The ``event_driven``
artefact (:mod:`repro.experiments.event_driven`) drives one such
runtime directly.
"""

from __future__ import annotations

import numpy as np

from repro.features import Feature, FeatureSet
from repro.hardware.backend import HardwareRuntime
from repro.hardware.flexon import FlexonNeuron


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


def idle_mask(neuron: FlexonNeuron, raw_inputs: np.ndarray) -> np.ndarray:
    """Neurons whose update this step is provably the identity.

    A neuron is idle when its model supports event-driven execution,
    it receives no input weight this step, and every architectural
    state variable sits exactly at its reset/rest value (raw zero; the
    refractory counter at zero).
    """
    if not supports_event_driven(neuron.features):
        return np.zeros(raw_inputs.shape[1], dtype=bool)
    idle = ~raw_inputs.any(axis=0)
    for values in neuron.state.values():
        idle &= values == 0
    return idle


class EventDrivenRuntime(HardwareRuntime):
    """A hardware runtime whose every step is activity-classified.

    Identical numerics to :class:`HardwareRuntime` (classifying only
    observes), with the population's activity factor accumulated across
    the run — the quantity :func:`event_driven_power` consumes.
    """

    #: Updates classified active, and in all, over the run.
    active_updates = 0
    total_updates = 0

    def _step_neuron(self, raw: np.ndarray) -> np.ndarray:
        idle = idle_mask(self.neuron, raw)
        self.active_updates += int((~idle).sum())
        self.total_updates += idle.size
        return self.neuron.step(raw)

    @property
    def activity_factor(self) -> float:
        """Fraction of neuron updates that actually needed computing."""
        if self.total_updates == 0:
            return 1.0
        return self.active_updates / self.total_updates


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
