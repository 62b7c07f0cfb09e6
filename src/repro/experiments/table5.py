"""Table V: control signals emulating the features on folded Flexon.

The paper's Table V lists, per feature (combination), the micro-
operations and their control-signal fields. This harness regenerates
the listing from the assembler for representative combinations and
reports the per-feature cycle counts the scheduling implies — e.g. the
Section V-B example that LIF (CUB + EXD) needs a single control signal
while QDI needs two passes over the single multiplier, giving a
three-cycle latency through the two-stage pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.features import MODEL_FEATURES, Feature, FeatureSet
from repro.experiments.common import format_table
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.constants import prepare_constants
from repro.hardware.microcode import Microprogram, assemble
from repro.models.base import ModelParameters
from repro.models.registry import create_model

#: Representative feature combinations, mirroring Table V's rows.
TABLE5_COMBINATIONS: List[Tuple[str, FeatureSet]] = [
    ("LID (+CUB)", FeatureSet([Feature.LID, Feature.CUB])),
    ("CUB + EXD (LIF)", FeatureSet([Feature.EXD, Feature.CUB])),
    ("EXD only", FeatureSet([Feature.EXD])),
    ("COBE", FeatureSet([Feature.EXD, Feature.COBE])),
    ("COBA", FeatureSet([Feature.EXD, Feature.COBA])),
    ("REV", FeatureSet([Feature.EXD, Feature.COBE, Feature.REV])),
    ("ADT", FeatureSet([Feature.EXD, Feature.CUB, Feature.ADT])),
    (
        "SBT + ADT",
        FeatureSet([Feature.EXD, Feature.CUB, Feature.ADT, Feature.SBT]),
    ),
    ("RR", FeatureSet([Feature.EXD, Feature.CUB, Feature.RR])),
    ("QDI + EXD", FeatureSet([Feature.EXD, Feature.COBE, Feature.QDI])),
    ("EXI + EXD", FeatureSet([Feature.EXD, Feature.COBE, Feature.EXI])),
]


@dataclass(frozen=True)
class Table5Row:
    """One Table V entry: a combination and its assembled program."""

    label: str
    program: Microprogram

    @property
    def n_signals(self) -> int:
        return self.program.n_signals

    @property
    def single_neuron_cycles(self) -> int:
        """End-to-end latency of one neuron through the 2-stage pipe."""
        return self.program.cycles_per_neuron


@dataclass(frozen=True)
class Table5Result:
    """Table V's listings plus each Table III model's program length."""

    combinations: List[Table5Row]
    #: model name -> control signals, with two synapse types
    signals: Dict[str, int]


def run(dt: float = 1e-4, n_synapse_types: int = 1) -> Table5Result:
    """Assemble the Table V programs (single synapse type, as printed)."""
    parameters = ModelParameters(
        n_synapse_types=n_synapse_types,
        tau_g=(5e-3,) * max(1, n_synapse_types),
        v_g=(4.33,) * max(1, n_synapse_types),
    )
    rows = []
    for label, features in TABLE5_COMBINATIONS:
        constants = prepare_constants(parameters, features, dt)
        rows.append(Table5Row(label, assemble(features, constants)))
    return Table5Result(rows, signals_per_model(dt))


def render(result: Table5Result) -> str:
    """The control-signal listings, the cycle summary, the model lengths."""
    sections = []
    summary = []
    for row in result.combinations:
        lines = [f"{row.label} ({row.n_signals} signals)"]
        for i, signal in enumerate(row.program.signals):
            fields = (
                f"a={int(signal.a)} b={int(signal.b)} s={signal.s} "
                f"exp={int(signal.exp)} s_wr={int(signal.s_wr)} "
                f"v_acc={int(signal.v_acc)}"
            )
            lines.append(f"  {i}: {signal.describe():44s} [{fields}]")
        sections.append("\n".join(lines))
        summary.append(
            (row.label, row.n_signals, row.single_neuron_cycles)
        )
    summary_table = format_table(
        ["Feature(s)", "Control signals", "Single-neuron cycles"], summary
    )
    model_lines = "\n".join(
        f"{name:24s} {count:2d} signals"
        for name, count in result.signals.items()
    )
    return (
        "\n\n".join(sections)
        + "\n\n"
        + summary_table
        + "\n\nSignals per Table III model (2 synapse types):\n"
        + model_lines
    )


def signals_per_model(dt: float = 1e-4) -> Dict[str, int]:
    """Signal counts for the full Table III models (2 synapse types)."""
    compiler = FlexonCompiler()
    out = {}
    for name in MODEL_FEATURES:
        compiled = compiler.compile(create_model(name), dt)
        out[name] = compiled.program.n_signals
    return out
