"""Functional models of the Flexon digital neurons (Sections IV and V).

This package is the paper's contribution, modeled bit-accurately in
fixed point:

* :mod:`repro.hardware.constants` — shift & scale constant preparation
  (the host-side work a Flexon back-end performs, Section IV-B1).
* :mod:`repro.hardware.datapaths` — the ten per-feature data paths of
  Figure 9, each with its arithmetic-unit inventory for the cost model.
* :mod:`repro.hardware.flexon` — the baseline single-cycle Flexon
  (Figure 10): all data paths evaluated in parallel, conflicting
  features gated by MUXes.
* :mod:`repro.hardware.control` / :mod:`repro.hardware.microcode` — the
  control-signal encoding (Table IV) and the per-feature microprograms
  (Table V).
* :mod:`repro.hardware.folded` — spatially folded Flexon (Figure 11): a
  two-stage pipeline with one shared MUL/ADD/EXP executing the
  microprograms, cycle-counted.
* :mod:`repro.hardware.array` — neuron arrays (the synthesized 12-neuron
  Flexon and 72-neuron folded configurations of Table VI) with their
  latency models.
* :mod:`repro.hardware.compiler` — translates neuron models into Flexon
  configurations and folded microprograms (the back-end of
  Section VII-B), including the Section VII-A workarounds.
* :mod:`repro.hardware.backend` — network-simulator backends that run
  the neuron-computation phase on the hardware models.
"""

from repro.hardware.constants import NeuronConstants, prepare_constants
from repro.hardware.flexon import FlexonNeuron
from repro.hardware.control import ControlSignal, AOperand, BOperand
from repro.hardware.microcode import Microprogram, assemble
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.array import FlexonArray, FoldedFlexonArray
from repro.hardware.compiler import FlexonCompiler, CompiledModel
from repro.hardware.backend import (
    FlexonBackend,
    FoldedFlexonBackend,
    HardwareRuntime,
    HybridBackend,
)

__all__ = [
    "AOperand",
    "BOperand",
    "CompiledModel",
    "ControlSignal",
    "FlexonArray",
    "FlexonBackend",
    "FlexonCompiler",
    "FlexonNeuron",
    "FoldedFlexonArray",
    "FoldedFlexonBackend",
    "FoldedFlexonNeuron",
    "HardwareRuntime",
    "HybridBackend",
    "Microprogram",
    "NeuronConstants",
    "assemble",
    "prepare_constants",
]
