"""One-shot corruptions of a live simulation's state, for tests: bit
flips in fixed-point words (hardware runtimes) or IEEE-754 payloads
(float runtimes), and NaN written into float state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.engine.runtime import CompiledRuntime, SolverRuntime
from repro.errors import SimulationError
from repro.hardware.backend import HardwareRuntime
from repro.hardware.control import STATE_G, STATE_R, STATE_V, STATE_W, STATE_Y
from repro.hardware.flexon import FlexonNeuron
from repro.network.simulator import Simulator


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
        self.backend = simulator.backend
        self.rng = np.random.default_rng(seed)

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
        runtime = self.backend.runtime(population)
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
            flips.append(BitFlip(population, name, neuron, bit, domain))
        return flips

    def inject_nan(
        self, population: str, variable: str = "v", index: int = 0
    ) -> None:
        """Poison one float state value with NaN (guardrail testing)."""
        runtime = self.backend.runtime(population)
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
