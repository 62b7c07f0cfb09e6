"""Ablation: Schraudolph's fast exp against the exact exp on the EXI path.

Section IV-B1 adopts a fast approximate exponential to cut the critical
path. This ablation measures the approximation's worst relative error
over the operating range and its effect on EIF spike trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly import DT
from repro.experiments.common import fired_mask_agreement, format_table
from repro.fixedpoint import fast_exp
from repro.fixedpoint.fastexp import max_relative_error
from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model


@dataclass(frozen=True)
class FastExpResult:
    """Worst relative errors and the EIF spike agreement."""

    worst: float  #: over [-8, 8]
    worst_unit: float  #: over [-1, 1]
    agreement: float  #: per-step fired-mask agreement, hardware vs float


def run() -> FastExpResult:
    ys = np.linspace(-8.0, 8.0, 200_000)
    exact = np.exp(ys)
    return FastExpResult(
        worst=float(np.max(np.abs(fast_exp(ys) - exact) / exact)),
        worst_unit=max_relative_error(-1, 1),
        # The float reference steps with the exact np.exp.
        agreement=fired_mask_agreement(
            "EIF", FlexonCompiler().compile(create_model("EIF"), DT), 5, 800
        ).spike_match,
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
