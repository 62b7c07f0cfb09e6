"""Ablation: fixed-point fraction width against accuracy.

Section IV-B1 claims the 32-bit / 22-fraction-bit format with truncated
membrane storage does not affect simulation results. This ablation
sweeps the fraction width and measures AdEx spike agreement against the
float reference, showing where the claim breaks down.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import fired_mask_agreement, format_table
from repro.fixedpoint import FixedFormat
from repro.hardware.compiler import FlexonCompiler


def agreement(frac_bits: int, steps: int = 600, n: int = 16) -> float:
    """Per-step spike agreement of a reduced-precision AdEx vs float."""
    fmt = FixedFormat(total_bits=frac_bits + 10, frac_bits=frac_bits)
    membrane = FixedFormat(total_bits=frac_bits + 2, frac_bits=frac_bits)
    compiler = FlexonCompiler(fmt=fmt, membrane_format=membrane)
    return fired_mask_agreement("AdEx", compiler, 3, steps, n)


def run() -> Dict[int, float]:
    """Fraction bits -> spike agreement."""
    return {bits: agreement(bits) for bits in (8, 12, 16, 22, 28)}


def render(agreements: Dict[int, float]) -> str:
    rows = [
        (f"fraction bits = {bits}", f"{100 * a:.2f}%")
        for bits, a in sorted(agreements.items())
    ]
    return format_table(["Format", "Spike agreement vs float"], rows)
