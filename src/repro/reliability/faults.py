"""Fault injection: measure the robustness envelope, don't assume it.

The paper argues Flexon's fixed-point arithmetic produces the same
spikes as the float reference (Section VI-A). That is a statement
about *fault-free* hardware. This module makes the complementary
question measurable: how far do the Flexon/folded arrays drift when
things go wrong — a state word takes a bit flip (SEU), the interconnect
drops spike deliveries, the input is perturbed?

:class:`FaultInjector` performs one-shot corruptions on a live
simulator: bit flips in fixed-point state words (hardware runtimes) or
IEEE-754 payloads (float runtimes), and direct NaN injection for
testing the numeric guardrails. The :class:`PhaseHook` fault models
(:class:`BitFlipFault`, :class:`SpikeDropFault`,
:class:`InputPerturbFault`) apply sustained fault processes during a
run; :mod:`repro.experiments.resilience` uses them to quantify
spike-train drift against the clean reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.hooks import PhaseHook
from repro.engine.runtime import CompiledRuntime, SolverRuntime
from repro.errors import SimulationError
from repro.hardware.backend import HardwareRuntime
from repro.hardware.control import STATE_G, STATE_R, STATE_V, STATE_W, STATE_Y
from repro.hardware.flexon import FlexonNeuron
from repro.network.simulator import Simulator
from repro.reliability.fallback import FallbackRuntime


@dataclass(frozen=True)
class BitFlip:
    """One injected single-bit upset."""

    population: str
    variable: str
    neuron: int
    bit: int
    #: "fixed" for raw fixed-point words, "float" for IEEE-754 payloads.
    domain: str


def _raw_state_words(runtime: HardwareRuntime) -> Dict[str, np.ndarray]:
    """Live int64 state words of a hardware runtime, by variable name."""
    neuron = runtime.neuron
    if isinstance(neuron, FlexonNeuron):
        return dict(neuron.state)
    # Folded: map the architectural float_state names onto register rows.
    out: Dict[str, np.ndarray] = {}
    for name in neuron.float_state():
        if name == "v":
            out[name] = neuron.regs[STATE_V]
        elif name == "w":
            out[name] = neuron.regs[STATE_W]
        elif name == "r":
            out[name] = neuron.regs[STATE_R]
        elif name == "cnt":
            out[name] = neuron.cnt
        elif name.startswith("g"):
            out[name] = neuron.regs[STATE_G[int(name[1:])]]
        elif name.startswith("y"):
            out[name] = neuron.regs[STATE_Y[int(name[1:])]]
    return out


class FaultInjector:
    """One-shot corruptions of a live simulation's state."""

    def __init__(self, simulator: Simulator, seed: int = 0) -> None:
        self.simulator = simulator
        self.backend = simulator.backend
        self.rng = np.random.default_rng(seed)
        #: Every fault injected so far, in order.
        self.log: List[BitFlip] = []

    def _target_runtime(self, population: str):
        runtime = self.backend.runtime(population)
        if isinstance(runtime, FallbackRuntime):
            return runtime.active
        return runtime

    def flip_state_bits(
        self,
        population: str,
        n_flips: int = 1,
        variable: Optional[str] = None,
    ) -> List[BitFlip]:
        """Flip ``n_flips`` random bits in one population's state.

        Hardware runtimes take the flip in their raw fixed-point words
        (bits ``0 .. total_bits-1``, the physically present storage);
        float runtimes take it in the IEEE-754 representation of a
        state value (bits ``0..63``) — the software analogue of the
        same upset.
        """
        runtime = self._target_runtime(population)
        flips: List[BitFlip] = []
        if isinstance(runtime, HardwareRuntime):
            words = _raw_state_words(runtime)
            n_bits = runtime.compiled.constants.fmt.total_bits
            domain = "fixed"
        elif isinstance(runtime, (CompiledRuntime, SolverRuntime)):
            words = runtime.state()
            n_bits = 64
            domain = "float"
        else:
            raise SimulationError(
                f"cannot inject faults into {type(runtime).__name__}"
            )
        names = sorted(words)
        if variable is not None:
            if variable not in words:
                raise SimulationError(
                    f"population {population!r} has no variable {variable!r}"
                )
            names = [variable]
        for _ in range(n_flips):
            name = names[self.rng.integers(len(names))]
            values = words[name]
            neuron = int(self.rng.integers(values.size))
            bit = int(self.rng.integers(n_bits))
            if domain == "fixed":
                values[neuron] = int(values[neuron]) ^ (1 << bit)
            else:
                # Toggle the bit in place in the value's IEEE-754 word.
                word = values[neuron:neuron + 1].view(np.uint64)
                word ^= np.uint64(1 << bit)
            flip = BitFlip(population, name, neuron, bit, domain)
            flips.append(flip)
            self.log.append(flip)
        return flips

    def inject_nan(
        self, population: str, variable: str = "v", index: int = 0
    ) -> None:
        """Poison one float state value with NaN (guardrail testing)."""
        runtime = self._target_runtime(population)
        if isinstance(runtime, HardwareRuntime):
            raise SimulationError(
                "hardware state is fixed point and cannot hold NaN; "
                "use flip_state_bits instead"
            )
        state = runtime.state()
        if variable not in state:
            raise SimulationError(
                f"population {population!r} has no variable {variable!r}"
            )
        values = state[variable]
        if not np.issubdtype(values.dtype, np.floating):
            raise SimulationError(
                f"variable {variable!r} is not float state; "
                "use flip_state_bits for fixed-point words"
            )
        values[index] = np.nan


class BitFlipFault(PhaseHook):
    """A sustained bit-flip process: upsets every ``every`` steps."""

    def __init__(
        self,
        simulator: Simulator,
        population: str,
        every: int,
        n_flips: int = 1,
        seed: int = 0,
        variable: Optional[str] = None,
    ) -> None:
        if every < 1:
            raise SimulationError(f"every must be >= 1, got {every}")
        self.injector = FaultInjector(simulator, seed=seed)
        self.population = population
        self.every = every
        self.n_flips = n_flips
        self.variable = variable

    @property
    def log(self) -> List[BitFlip]:
        return self.injector.log

    def on_step_start(self, step: int) -> None:
        if step == 0 or step % self.every:
            return
        self.injector.flip_state_bits(
            self.population, self.n_flips, self.variable
        )


class SpikeDropFault(PhaseHook):
    """Drops queued input entries with probability ``p_drop`` per step.

    Fires after the stimulus phase and before neuron computation, so it
    models a lossy interconnect: both externally forged spikes and
    in-flight synaptic deliveries landing this step can be lost.
    """

    def __init__(
        self,
        simulator: Simulator,
        p_drop: float,
        seed: int = 0,
        populations: Optional[Sequence[str]] = None,
    ) -> None:
        if not 0.0 <= p_drop <= 1.0:
            raise SimulationError(f"p_drop must be in [0, 1], got {p_drop}")
        self.simulator = simulator
        self.p_drop = p_drop
        self.rng = np.random.default_rng(seed)
        self.populations = None if populations is None else set(populations)
        #: Total input entries zeroed so far.
        self.dropped = 0

    def _targets(self):
        for name, queue in self.simulator.queues.items():
            if self.populations is None or name in self.populations:
                yield queue

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        if phase != "stimulus" or self.p_drop == 0.0:
            return
        for queue in self._targets():
            slot = queue.current()
            drop = self.rng.random(slot.shape) < self.p_drop
            drop &= slot != 0.0
            if drop.any():
                self.dropped += int(drop.sum())
                slot[drop] = 0.0


class InputPerturbFault(PhaseHook):
    """Adds Gaussian noise to the accumulated input of each step.

    Perturbs only entries that received some weight this step (noise on
    active wires), leaving silent inputs silent so purely event-driven
    behaviour is preserved.
    """

    def __init__(
        self,
        simulator: Simulator,
        sigma: float,
        seed: int = 0,
        populations: Optional[Sequence[str]] = None,
    ) -> None:
        if sigma < 0:
            raise SimulationError(f"sigma must be non-negative, got {sigma}")
        self.simulator = simulator
        self.sigma = sigma
        self.rng = np.random.default_rng(seed)
        self.populations = None if populations is None else set(populations)
        #: Total input entries perturbed so far.
        self.perturbed = 0

    def on_phase(
        self, phase: str, step: int, seconds: float, operations: int
    ) -> None:
        if phase != "stimulus" or self.sigma == 0.0:
            return
        for name, queue in self.simulator.queues.items():
            if self.populations is not None and name not in self.populations:
                continue
            slot = queue.current()
            active = slot != 0.0
            count = int(active.sum())
            if count:
                slot[active] += self.rng.normal(0.0, self.sigma, size=count)
                self.perturbed += count
