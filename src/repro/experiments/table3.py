"""Table III: feature combinations simulate the published models.

The claim: each of the eleven neuron models of Table III is expressible
as a combination of the 12 biologically common features. This harness
*verifies* the claim executably: for every model it

1. prints the feature-combination matrix (the table itself);
2. compiles the combination for Flexon and runs the fixed-point
   hardware next to the float reference under identical stimuli,
   reporting the spike-match rate (the combination actually *works*,
   not just type-checks);
3. confirms baseline Flexon and folded Flexon agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.assembly import DT
from repro.features import Feature, MODEL_FEATURES, combination_matrix
from repro.experiments.common import (
    SpikeAgreement, fired_mask_agreement, format_table,
)
from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model

#: Stimulus strength per model family: CUB models integrate currents
#: (need >1 to cross threshold), conductance models integrate jumps.
_CURRENT_MODELS = {"LIF", "LLIF", "SLIF"}


@dataclass(frozen=True)
class Table3Row(SpikeAgreement):
    """Verification outcome for one neuron model."""

    model: str
    features: List[str]
    n_signals: int


def verify_model(
    name: str, n: int = 32, steps: int = 800, seed: int = 7
) -> Table3Row:
    """Run one model's feature combination against the reference."""
    compiled = FlexonCompiler().compile(create_model(name), DT)
    drive = 40.0 if name in _CURRENT_MODELS else 1.5
    result = fired_mask_agreement(name, compiled, seed, steps, n, drive, folded=True)
    return Table3Row(
        **vars(result),
        model=name,
        features=[f.value for f in MODEL_FEATURES[name]],
        n_signals=compiled.program.n_signals,
    )


def run(steps: int = 400, n: int = 16) -> List[Table3Row]:
    """Verify every Table III model (LIF baseline included)."""
    return [
        verify_model(name, n=n, steps=steps) for name in MODEL_FEATURES
    ]


def render(rows: List[Table3Row]) -> str:
    """The matrix, then its executable verification."""
    return format_matrix() + "\n\n" + format_verification(rows)


def format_matrix() -> str:
    """Render the Table III checkmark matrix."""
    feature_names = [f.value for f in Feature]
    rows = []
    for model, enabled in combination_matrix():
        rows.append(
            [model] + ["x" if enabled[name] else "" for name in feature_names]
        )
    return format_table(["Neuron Model"] + feature_names, rows)


def format_verification(rows: List[Table3Row]) -> str:
    """Render the executable verification of the matrix."""
    table = []
    for row in rows:
        table.append(
            (
                row.model,
                "+".join(row.features),
                row.n_signals,
                row.hardware_spikes,
                row.reference_spikes,
                f"{100 * row.spike_match:.2f}%",
                "yes" if row.bit_exact else "NO",
            )
        )
    return format_table(
        [
            "Model",
            "Features",
            "Signals",
            "HW spikes",
            "Ref spikes",
            "Match",
            "Flexon==Folded",
        ],
        table,
    )
