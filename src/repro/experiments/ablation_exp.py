"""Ablation: Schraudolph's fast exp against the exact exp on the EXI path.

Section IV-B1 adopts a fast approximate exponential to cut the critical
path. This ablation measures the approximation's worst relative error
over the operating range and its effect on EIF spike trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import format_table
from repro.fixedpoint import FLEXON_FORMAT, fast_exp, fx_from_float
from repro.fixedpoint.fastexp import max_relative_error
from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model

DT = 1e-4


@dataclass(frozen=True)
class FastExpResult:
    """Worst relative errors and the EIF spike agreement."""

    worst: float  #: over [-8, 8]
    worst_unit: float  #: over [-1, 1]
    agreement: float  #: per-step fired-mask agreement, hardware vs float


def eif_spike_agreement(steps: int = 800, n: int = 16) -> float:
    """Spike agreement between fast-exp hardware and exact-exp floats."""
    model = create_model("EIF")
    compiled = FlexonCompiler().compile(model, DT)
    hardware = compiled.instantiate_flexon(n)
    reference = model.initial_state(n)  # float reference uses np.exp
    rng = np.random.default_rng(5)
    agree = 0
    for _ in range(steps):
        weights = (rng.random((2, n)) < 0.08) * 1.5
        weights[1] *= 0.2
        raw = fx_from_float(weights * compiled.weight_scale, FLEXON_FORMAT)
        fired_hw = hardware.step(raw)
        fired_ref = model.step(reference, weights.copy(), DT)
        agree += int((fired_hw == fired_ref).sum())
    return agree / (steps * n)


def run() -> FastExpResult:
    ys = np.linspace(-8.0, 8.0, 200_000)
    exact = np.exp(ys)
    return FastExpResult(
        worst=float(np.max(np.abs(fast_exp(ys) - exact) / exact)),
        worst_unit=max_relative_error(-1, 1),
        agreement=eif_spike_agreement(),
    )


def render(result: FastExpResult) -> str:
    rows = [
        ("worst relative error on [-8, 8]", f"{100 * result.worst:.2f}%"),
        ("worst relative error on [-1, 1]", f"{100 * result.worst_unit:.2f}%"),
        (
            "EIF spike agreement (fast exp vs exact)",
            f"{100 * result.agreement:.2f}%",
        ),
    ]
    return format_table(["Metric", "Value"], rows)
