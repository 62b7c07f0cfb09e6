"""Neuronal behaviour regimes on Flexon hardware.

The paper's related work highlights that Izhikevich's model "emulates
20 neuronal behaviors which integrate-and-fire models cannot emulate"
and that "Flexon fully supports Izhikevich's model". This harness
demonstrates a representative set of those behaviours *on the
fixed-point hardware model*, each as a feature combination plus a
parameter preset (including the elevated-reset trick that Izhikevich's
``c`` parameter provides — our ``v_reset``):

========================  =====================================
behaviour                  mechanism
========================  =====================================
tonic spiking              plain LIF under constant drive
phasic spiking             strong fast adaptation silences after onset
spike-frequency adaptation slow ADT stretches the ISIs
mixed mode                 elevated reset + adaptation: onset burst,
                           then tonic singles (Izhikevich's "mixed mode")
class-1 excitability       QDI: rate grows smoothly from zero with drive
refractory ceiling         AR caps the rate regardless of drive
========================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.features import Feature, FeatureSet
from repro.hardware.backend import HardwareRuntime
from repro.hardware.compiler import FlexonCompiler
from repro.models import ModelParameters
from repro.models.feature_model import FeatureModel

DT = 1e-4


@dataclass(frozen=True)
class BehaviorPreset:
    """One demonstrable behaviour: model config + stimulus."""

    name: str
    features: FeatureSet
    parameters: ModelParameters
    drive: Callable[[int], float]
    steps: int = 6000


def _const(value: float) -> Callable[[int], float]:
    return lambda _step: value


PRESETS: Dict[str, BehaviorPreset] = {
    "tonic spiking": BehaviorPreset(
        name="tonic spiking",
        features=FeatureSet([Feature.EXD, Feature.CUB]),
        parameters=ModelParameters(tau=20e-3),
        drive=_const(2.0),
    ),
    "phasic spiking": BehaviorPreset(
        name="phasic spiking",
        features=FeatureSet([Feature.EXD, Feature.CUB, Feature.ADT]),
        # Large, slowly decaying adaptation: the onset fires a few
        # spikes, then w pins the neuron below threshold.
        parameters=ModelParameters(tau=20e-3, tau_w=2.0, b=0.02),
        drive=_const(1.6),
    ),
    "spike-frequency adaptation": BehaviorPreset(
        name="spike-frequency adaptation",
        features=FeatureSet([Feature.EXD, Feature.CUB, Feature.ADT]),
        parameters=ModelParameters(tau=20e-3, tau_w=300e-3, b=0.001),
        drive=_const(2.0),
        steps=8000,
    ),
    "mixed mode": BehaviorPreset(
        name="mixed mode",
        features=FeatureSet([Feature.EXD, Feature.CUB, Feature.ADT]),
        # Izhikevich's elevated-reset trick (his ``c``): the reset just
        # below threshold refires immediately until the accumulated
        # adaptation ends the onset burst; the slow decay then settles
        # into tonic single spikes — the "mixed mode" behaviour.
        parameters=ModelParameters(
            tau=20e-3, v_reset=0.92, tau_w=500e-3, b=0.0025
        ),
        drive=_const(2.5),
    ),
    "class-1 excitability": BehaviorPreset(
        name="class-1 excitability",
        features=FeatureSet(
            [Feature.EXD, Feature.COBE, Feature.QDI]
        ),
        parameters=ModelParameters(tau=20e-3, v_c=0.5, v_theta=2.0),
        drive=_const(0.0),  # swept by the verifier
    ),
    "refractory ceiling": BehaviorPreset(
        name="refractory ceiling",
        features=FeatureSet([Feature.EXD, Feature.CUB, Feature.AR]),
        parameters=ModelParameters(tau=20e-3, t_ref=10e-3),
        drive=_const(50.0),
    ),
}


def run_behavior(
    preset: BehaviorPreset, drive: Optional[float] = None
) -> List[int]:
    """Spike steps of one hardware neuron under the preset."""
    model = FeatureModel(preset.features, preset.parameters)
    compiled = FlexonCompiler().compile(model, DT)
    runtime = HardwareRuntime(preset.name, 1, compiled, DT, folded=False)
    n_types = preset.parameters.n_synapse_types
    spikes = []
    for step in range(preset.steps):
        weights = np.zeros((n_types, 1))
        weights[0, 0] = preset.drive(step) if drive is None else drive
        if runtime.advance(weights, DT)[0]:
            spikes.append(step)
    return spikes


def burstiness(spikes: List[int], gap_steps: int = 50) -> float:
    """Mean burst length: spikes per cluster separated by > gap."""
    if not spikes:
        return 0.0
    clusters = [1]
    for previous, current in zip(spikes, spikes[1:]):
        if current - previous <= gap_steps:
            clusters[-1] += 1
        else:
            clusters.append(1)
    return float(np.mean(clusters))


def rate_curve(
    preset: BehaviorPreset, drives: Sequence[float]
) -> List[float]:
    """Firing rate [Hz] as a function of constant drive (f-I curve)."""
    duration = preset.steps * DT
    return [
        len(run_behavior(preset, drive=d)) / duration for d in drives
    ]


def run() -> Dict[str, List[int]]:
    """Spike steps of every preset run at its own drive.

    Class-1 excitability has no single drive; ``rate_curve`` sweeps it.
    """
    return {
        name: run_behavior(preset)
        for name, preset in PRESETS.items()
        if name != "class-1 excitability"
    }


def _raster(spikes: List[int], steps: int, width: int = 90) -> str:
    bins = np.zeros(width, dtype=bool)
    for step in spikes:
        bins[min(width - 1, step * width // steps)] = True
    return "".join("|" if hit else "." for hit in bins)


def render(trains: Dict[str, List[int]]) -> str:
    """One ASCII raster per behaviour, with its spike count."""
    lines = []
    for name, train in trains.items():
        steps = PRESETS[name].steps
        lines.append(f"{name:28s} {_raster(train, steps)}  "
                     f"{len(train)} spikes / {steps * DT:.1f} s")
    return "\n".join(lines)
