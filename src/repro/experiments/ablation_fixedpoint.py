"""Ablation: fixed-point fraction width against accuracy.

Section IV-B1 claims the 32-bit / 22-fraction-bit format with truncated
membrane storage does not affect simulation results. This ablation
sweeps the fraction width and measures AdEx spike agreement against the
float reference, showing where the claim breaks down.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.experiments.common import format_table
from repro.fixedpoint import FixedFormat, fx_from_float
from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model

DT = 1e-4


def agreement(frac_bits: int, steps: int = 600, n: int = 16) -> float:
    """Per-step spike agreement of a reduced-precision AdEx vs float."""
    fmt = FixedFormat(total_bits=frac_bits + 10, frac_bits=frac_bits)
    membrane = FixedFormat(total_bits=frac_bits + 2, frac_bits=frac_bits)
    model = create_model("AdEx")
    compiled = FlexonCompiler(fmt=fmt, membrane_format=membrane).compile(
        model, DT
    )
    hardware = compiled.instantiate_flexon(n)
    reference = model.initial_state(n)
    rng = np.random.default_rng(3)
    agree = 0
    for _ in range(steps):
        weights = (rng.random((2, n)) < 0.08) * 1.5
        weights[1] *= 0.2
        raw = fx_from_float(weights * compiled.weight_scale, fmt)
        fired_hw = hardware.step(raw)
        fired_ref = model.step(reference, weights.copy(), DT)
        agree += int((fired_hw == fired_ref).sum())
    return agree / (steps * n)


def run() -> Dict[int, float]:
    """Fraction bits -> spike agreement."""
    return {bits: agreement(bits) for bits in (8, 12, 16, 22, 28)}


def render(agreements: Dict[int, float]) -> str:
    rows = [
        (f"fraction bits = {bits}", f"{100 * a:.2f}%")
        for bits, a in sorted(agreements.items())
    ]
    return format_table(["Format", "Spike agreement vs float"], rows)
