"""The Flexon back-end compiler (Section VII-B).

PyNN-style front-ends describe a network in terms of neuron models;
"implementing a code generator which translates a neuron model to the
control signals for spatially folded Flexon automatically integrates
spatially folded Flexon to the front-ends". This module is that code
generator: it maps a reference :class:`~repro.models.base.NeuronModel`
onto a :class:`CompiledModel` — feature configuration, quantised
constants, and the folded microprogram — or reports the model as
unsupported (HH and other custom models), in which case the hybrid
backend keeps it on the general-purpose processor (Section VII-A).

The Section VII-A background-current workaround is provided too:
:func:`with_background_current` appends one control signal executing
``v' += I_bg`` (the paper's ``b = 2, v_acc = 1`` trick, realised here
with a constant operand so no synapse type needs dedicating).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import CompilationError
from repro.features import FeatureSet
from repro.fixedpoint import FLEXON_FORMAT, MEMBRANE_FORMAT, FixedFormat, fx_from_float
from repro.hardware.constants import NeuronConstants, prepare_constants
from repro.hardware.control import AOperand, BOperand, ControlSignal, STATE_V
from repro.hardware.flexon import FlexonNeuron
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.microcode import Microprogram, assemble
from repro.models.base import NeuronModel
from repro.models.feature_model import FeatureModel


@dataclass(frozen=True)
class CompiledModel:
    """Everything a digital-neuron array needs to run one model."""

    model_name: str
    features: FeatureSet
    constants: NeuronConstants
    program: Microprogram
    membrane_format: Optional[FixedFormat]

    @property
    def weight_scale(self) -> float:
        """Host-side synaptic-weight pre-scale factor."""
        return self.constants.weight_scale

    def instantiate_flexon(self, n: int) -> FlexonNeuron:
        """A baseline-Flexon functional model for ``n`` neurons."""
        return FlexonNeuron(
            self.features, self.constants, n, self.membrane_format
        )

    def instantiate_folded(self, n: int) -> FoldedFlexonNeuron:
        """A folded-Flexon functional model for ``n`` neurons."""
        return FoldedFlexonNeuron(self.program, n, self.membrane_format)


class FlexonCompiler:
    """Translates neuron models into Flexon configurations."""

    def __init__(
        self,
        fmt: FixedFormat = FLEXON_FORMAT,
        membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
    ):
        self.fmt = fmt
        self.membrane_format = membrane_format

    def supports(self, model: NeuronModel) -> bool:
        """Whether Flexon can natively simulate ``model``.

        Flexon supports exactly the models expressible as biologically
        common features — i.e. our :class:`FeatureModel` instances.
        Custom models (HH, native Izhikevich) need the hybrid path.
        """
        return isinstance(model, FeatureModel)

    def compile(self, model: NeuronModel, dt: float) -> CompiledModel:
        """Compile ``model`` for time step ``dt``.

        Raises :class:`~repro.errors.CompilationError` for unsupported
        models, naming the offloading workaround.
        """
        if not self.supports(model):
            raise CompilationError(
                f"model {model.name!r} is not expressible with the 12 "
                "biologically common features; simulate it on the "
                "general-purpose processor (Section VII-A) with "
                '--backend hybrid ("backend": "hybrid" in a spec)'
            )
        assert isinstance(model, FeatureModel)
        constants = prepare_constants(
            model.parameters, model.features, dt, self.fmt
        )
        program = assemble(model.features, constants)
        return CompiledModel(
            model_name=model.name,
            features=model.features,
            constants=constants,
            program=program,
            membrane_format=self.membrane_format,
        )


def with_background_current(
    compiled: CompiledModel, i_bg: float
) -> CompiledModel:
    """Append the Section VII-A background-current control signal.

    Every step, ``v' += I_bg`` executes as one extra op — the
    workaround that emulates a constant input drive without any
    front-end support for it.
    """
    constants = compiled.constants
    raw = fx_from_float(i_bg * constants.weight_scale, constants.fmt)
    program = compiled.program
    mul_constants = list(program.mul_constants)
    add_constants = list(program.add_constants)
    if 0 not in mul_constants:
        mul_constants.append(0)
    if raw not in add_constants:
        add_constants.append(raw)
    signal = ControlSignal(
        a=AOperand.CONSTANT,
        ca=mul_constants.index(0),
        b=BOperand.CONSTANT,
        cb=add_constants.index(raw),
        s=STATE_V,
        v_acc=True,
        note="v' += I_bg (background current)",
    )
    new_program = Microprogram(
        features=program.features,
        constants=constants,
        signals=program.signals + (signal,),
        mul_constants=tuple(mul_constants),
        add_constants=tuple(add_constants),
    )
    return replace(compiled, program=new_program)
