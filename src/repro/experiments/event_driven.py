"""Event-driven execution: the LLIF energy saving, measured.

The paper remarks that LLIF is "suitable for event-driven execution,
reducing ... energy consumption". This artefact measures the activity
factor of a sparse LLIF population on the Flexon model at four input
rates and scales the 12-neuron array's dynamic power by it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.costmodel.synthesis import flexon_array_cost
from repro.experiments.common import format_table
from repro.fixedpoint import FLEXON_FORMAT, fx_from_float
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.event_driven import EventDrivenMonitor, event_driven_power
from repro.models.registry import create_model

DT = 1e-4
N = 2_000
STEPS = 1_500
#: Leakage + SRAM retention share of the always-on array power.
STATIC_FRACTION = 0.35


def activity_factor(spike_probability: float) -> float:
    """Activity factor of an LLIF population under sparse drive."""
    compiled = FlexonCompiler().compile(create_model("LLIF"), DT)
    monitor = EventDrivenMonitor(compiled.instantiate_flexon(N))
    rng = np.random.default_rng(9)
    for _ in range(STEPS):
        weights = (rng.random((2, N)) < spike_probability) * 30.0
        raw = fx_from_float(weights * compiled.weight_scale, FLEXON_FORMAT)
        monitor.step(raw)
    return monitor.activity_factor


def run() -> Dict[float, float]:
    """Input spike probability -> measured activity factor."""
    return {p: activity_factor(p) for p in (0.0005, 0.002, 0.01, 0.05)}


def render(activity: Dict[float, float]) -> str:
    """Array power and energy saving per input sparsity."""
    cost = flexon_array_cost()
    rows = []
    for probability, factor in sorted(activity.items()):
        power = event_driven_power(
            cost.total_power_w, STATIC_FRACTION, factor
        )
        saving = 1.0 - power / cost.total_power_w
        rows.append(
            (
                f"{probability:.2%} input rate",
                f"{100 * factor:.1f}%",
                f"{power:.3f}",
                f"{100 * saving:.1f}%",
            )
        )
    text = format_table(
        [
            "Input sparsity",
            "Activity factor",
            "Array power [W]",
            "Energy saving",
        ],
        rows,
    )
    return (
        "Event-driven LLIF execution on the 12-neuron Flexon array "
        f"(always-on power {cost.total_power_w:.3f} W)\n\n" + text
    )
