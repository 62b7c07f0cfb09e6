"""Figures 4-8: the behavioural sketches of the five feature categories.

The paper illustrates each category with a small trajectory figure:

* **Figure 4** — exponential vs linear membrane decay;
* **Figure 5** — current-based vs conductance-based input accumulation;
* **Figure 6** — instant vs quadratic/exponential spike initiation;
* **Figure 7** — adaptation and subthreshold oscillation;
* **Figure 8** — absolute vs relative refractory.

This harness regenerates each as measured membrane traces from the
*fixed-point Flexon hardware model* (not the float reference), rendered
as ASCII line plots — so the figures double as behavioural evidence for
the hardware implementation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.charts import line_plot
from repro.features import Feature, FeatureSet
from repro.fixedpoint import FLEXON_FORMAT, fx_from_float
from repro.hardware.backend import HardwareRuntime
from repro.hardware.compiler import FlexonCompiler
from repro.models import ModelParameters
from repro.models.feature_model import FeatureModel

DT = 1e-4


def _trace(
    features: Sequence[Feature],
    steps: int,
    input_fn,
    v0: float = 0.0,
    variable: str = "v",
    **overrides,
) -> List[float]:
    """Membrane (or other state) trace of one hardware neuron."""
    model = FeatureModel(FeatureSet(features), ModelParameters(**overrides))
    compiled = FlexonCompiler().compile(model, DT)
    runtime = HardwareRuntime(model.name, 1, compiled, DT, folded=False)
    runtime.neuron.state["v"][:] = fx_from_float(v0, FLEXON_FORMAT)
    n_types = model.parameters.n_synapse_types
    out = []
    for step in range(steps):
        weights = np.zeros((n_types, 1))
        weights[0, 0] = input_fn(step)
        runtime.advance(weights, DT)
        out.append(float(runtime.state()[variable][0]))
    return out


def figure4_membrane_decay(steps: int = 600) -> Dict[str, List[float]]:
    """EXD's exponential curve vs LID's straight line to rest."""

    def silent(_step):
        return 0.0

    return {
        "EXD (exponential)": _trace(
            [Feature.EXD, Feature.CUB], steps, silent, v0=0.9, tau=20e-3
        ),
        "LID (linear)": _trace(
            [Feature.LID, Feature.CUB], steps, silent, v0=0.9, leak_rate=20.0
        ),
    }


def figure5_input_accumulation(steps: int = 500) -> Dict[str, List[float]]:
    """One input spike at t=0 under CUB / COBE / COBA kernels.

    CUB weights are currents (scaled by eps_m = 0.005 per step), so the
    current-based pulse is 100x larger to make the three kernels'
    membrane responses comparable in one plot.
    """

    def pulse(step):
        return 0.5 if step == 0 else 0.0

    def cub_pulse(step):
        return 100.0 if step == 0 else 0.0

    return {
        "CUB (instant)": _trace([Feature.EXD, Feature.CUB], steps, cub_pulse),
        "COBE (exponential)": _trace(
            [Feature.EXD, Feature.COBE], steps, pulse, tau_g=(5e-3, 10e-3)
        ),
        "COBA (alpha)": _trace(
            [Feature.EXD, Feature.COBA], steps, pulse, tau_g=(5e-3, 10e-3)
        ),
    }


def figure6_spike_initiation(steps: int = 500) -> Dict[str, List[float]]:
    """Trajectories from just above theta: instant fire vs self-drive."""

    def silent(_step):
        return 0.0

    return {
        "instant (LIF)": _trace(
            [Feature.EXD, Feature.CUB], steps, silent, v0=1.05
        ),
        "QDI (quadratic)": _trace(
            [Feature.EXD, Feature.COBE, Feature.QDI],
            steps, silent, v0=1.55, v_c=0.5, v_theta=2.0,
        ),
        "EXI (exponential)": _trace(
            [Feature.EXD, Feature.COBE, Feature.EXI],
            steps, silent, v0=1.42, delta_t=0.133, v_theta=2.0,
        ),
    }


def figure7_spike_triggered_current(
    steps: int = 6000,
) -> Dict[str, List[float]]:
    """ADT's stretching inter-spike intervals; SBT's oscillation level."""

    def drive(_step):
        return 2.0

    return {
        "plain LIF": _trace([Feature.EXD, Feature.CUB], steps, drive),
        "ADT (adaptation)": _trace(
            [Feature.EXD, Feature.CUB, Feature.ADT],
            steps, drive, tau_w=200e-3, b=0.01,
        ),
        "SBT (oscillation, no input)": _trace(
            [Feature.EXD, Feature.CUB, Feature.ADT, Feature.SBT],
            steps, lambda _step: 0.0, v0=0.9,
            a=-0.02, v_w=0.4, tau_w=200e-3,
        ),
    }


def figure8_refractory(steps: int = 2000) -> Dict[str, List[float]]:
    """Firing under strong drive: AR's hard cap vs RR's soft slowdown."""

    def drive(_step):
        return 4.0

    return {
        "no refractory": _trace([Feature.EXD, Feature.CUB], steps, drive),
        "AR (absolute)": _trace(
            [Feature.EXD, Feature.CUB, Feature.AR], steps, drive, t_ref=5e-3
        ),
        "RR (relative)": _trace(
            [Feature.EXD, Feature.CUB, Feature.RR],
            steps, drive,
            tau_r=10e-3, q_r=0.08, v_rr=-1.0, b=0.04, v_ar=-0.5,
            tau_w=100e-3,
        ),
    }


#: figure name -> (builder, caption)
ALL_FIGURES = {
    "figure4": (figure4_membrane_decay, "membrane decay"),
    "figure5": (figure5_input_accumulation, "input spike accumulation"),
    "figure6": (figure6_spike_initiation, "spike initiation"),
    "figure7": (figure7_spike_triggered_current, "spike-triggered current"),
    "figure8": (figure8_refractory, "refractory"),
}


def spike_count(trace: Sequence[float], threshold: float = 0.9) -> int:
    """Reset events in a membrane trace (fast drop from near-threshold)."""
    trace = np.asarray(trace)
    drops = (trace[:-1] > threshold) & (trace[1:] < trace[:-1] - 0.5)
    return int(drops.sum())


def run() -> Dict[str, Dict[str, List[float]]]:
    """Generate every Figure 4-8 trace set."""
    return {name: builder() for name, (builder, _) in ALL_FIGURES.items()}


def render(traces: Dict[str, Dict[str, List[float]]]) -> str:
    """Render all five figures as ASCII line plots."""
    sections = []
    for name, series in traces.items():
        _, caption = ALL_FIGURES[name]
        sections.append(
            f"{name.capitalize()} — biologically common features for "
            f"{caption}\n" + line_plot(series)
        )
    return "\n\n".join(sections)
