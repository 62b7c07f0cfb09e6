"""PhaseHook: pluggable per-phase instrumentation for the simulator.

The three-phase loop (stimulus generation, neuron computation, synapse
calculation) instruments each phase with wall-clock time and abstract
operation counts. Rather than hard-coding that bookkeeping in the
loop, the simulator emits phase events to :class:`PhaseHook` observers;
the built-in :class:`PhaseTimer` turns them into the
``SimulationResult.phases`` statistics, and user hooks can layer
tracing, profiling, or progress reporting on the same stream without
touching the hot loop.

Hooks that override :meth:`PhaseHook.on_population` additionally
receive one *kernel span* per population per step — the wall time of
that population's ``advance`` inside the neuron phase. The simulator
only pays for the extra clock reads while such a hook is attached.

Failure semantics (pinned by tests): the built-in timer always closes
a phase *before* user hooks see it, so no hook can corrupt phase
accounting. A hook that raises a structured
:class:`~repro.errors.ReproError` is treated as deliberate (e.g.
``NumericsGuard``, ``CheckpointHook``) and propagates; any other
exception is isolated — the hook is detached for the rest of the run
and the failure is recorded as a :class:`HookError` on
``SimulationResult.hook_errors`` (and the ``sim_hook_errors_total``
metric), with a ``RuntimeWarning`` emitted so it cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Canonical phase order of one simulated time step (Section II-C).
PHASES = ("stimulus", "neuron", "synapse")


@dataclass
class PhaseStats:
    """Accumulated cost of one phase across a run."""

    seconds: float = 0.0
    operations: int = 0

    def add(self, seconds: float, operations: int) -> None:
        self.seconds += seconds
        self.operations += operations


@dataclass(frozen=True)
class HookError:
    """One isolated user-hook failure (see module docstring)."""

    #: Class name of the hook that raised.
    hook: str
    #: Callback that raised (``on_phase``, ``on_step_start``, ...).
    callback: str
    #: Step index at which the failure happened.
    step: int
    #: ``repr`` of the exception (the original is not kept alive).
    error: str

    def describe(self) -> str:
        return (
            f"step {self.step}: {self.hook}.{self.callback} raised "
            f"{self.error}; hook detached for the rest of the run"
        )


class PhaseHook:
    """Observer of the simulator's per-phase event stream.

    Subclass and override any subset; all default implementations are
    no-ops. ``on_phase`` is the hot callback — it fires three times per
    simulated step — so implementations should do O(1) work and defer
    aggregation to ``on_run_end``.
    """

    #: Set False (class- or instance-level) on hooks that override
    #: ``on_population`` but do not want the simulator to pay the
    #: per-population clock reads (e.g. a TraceHook built with
    #: ``populations=False``).
    wants_population_spans = True

    def on_run_start(self, network, n_steps: int) -> None:
        """Called once before the first step of a ``Simulator.run``."""

    def on_step_start(self, step: int) -> None:
        """Called at the top of every simulated step."""

    def on_phase(self, phase: str, step: int, seconds: float, operations: int) -> None:
        """Called after each phase with its wall time and op count."""

    def on_population(
        self, population: str, step: int, seconds: float, operations: int
    ) -> None:
        """Called per population with its neuron-kernel wall time.

        Only fires while at least one attached hook overrides this
        method (and does not set ``wants_population_spans = False``) —
        the simulator skips the per-population clock reads otherwise.
        """

    def on_run_end(self, result) -> None:
        """Called once with the finished ``SimulationResult``."""


class PhaseTimer(PhaseHook):
    """The built-in hook: accumulates per-phase ``PhaseStats``."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStats] = {
            phase: PhaseStats() for phase in PHASES
        }

    def on_phase(self, phase: str, step: int, seconds: float, operations: int) -> None:
        self.phases[phase].add(seconds, operations)
