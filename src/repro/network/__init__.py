"""SNN description and time-step simulation framework.

This package is the simulation substrate of the reproduction — the role
NEST / GeNN / Brian play in the paper. It provides populations,
projections (synapse groups with weights, types and delays), stimulus
generators, spike recording, and a three-phase time-step loop
(Section II-C): stimulus generation, neuron computation, and synapse
calculation. The simulator instruments each phase with wall-clock time
and operation counts, which drive the Figure 3 breakdown and the
Figure 13 cost models.
"""

from repro.network.population import Population
from repro.network.projection import Projection, connect
from repro.network.stimulus import PatternStimulus, PoissonStimulus, Stimulus
from repro.network.recorder import SpikeRecord, SpikeRecorder, StateRecorder
from repro.network.network import Network
from repro.network.backends import ReferenceBackend, RuntimeBackend
from repro.network.simulator import (
    PHASES,
    PhaseStats,
    SimulationResult,
    Simulator,
)
from repro.engine.hooks import HookError, PhaseHook, PhaseTimer

__all__ = [
    "HookError",
    "Network",
    "PHASES",
    "PatternStimulus",
    "PhaseHook",
    "PhaseStats",
    "PhaseTimer",
    "PoissonStimulus",
    "Population",
    "Projection",
    "ReferenceBackend",
    "RuntimeBackend",
    "SimulationResult",
    "Simulator",
    "SpikeRecord",
    "SpikeRecorder",
    "StateRecorder",
    "Stimulus",
    "connect",
]
