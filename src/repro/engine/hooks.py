"""PhaseHook: pluggable per-phase instrumentation for the simulator.

The three-phase loop (stimulus generation, neuron computation, synapse
calculation) instruments each phase with wall-clock time and abstract
operation counts. Rather than hard-coding that bookkeeping in the
loop, the simulator emits phase events to :class:`PhaseHook` observers;
the built-in :class:`PhaseTimer` turns them into the
``SimulationResult.phases`` statistics, and user hooks can layer
tracing, profiling, or progress reporting on the same stream without
touching the hot loop.

A hook gets one *kernel span* per block per step — the wall time of
that block's ``advance`` inside the neuron phase — if and only if it
overrides :meth:`PhaseHook.on_population`. The simulator only pays for
the extra clock reads while such a hook is attached.

Failure semantics (pinned by tests), delivered by
:class:`HookDispatcher`: the built-in timer always closes a phase
*before* user hooks see it, so no hook can corrupt phase accounting. A
hook that raises a structured :class:`~repro.errors.ReproError` is
treated as deliberate (e.g. ``NumericsGuard``, ``CheckpointHook``) and
propagates; any other exception is held, and at the end of the step
the hook is detached for the rest of the run and its first failure
recorded as a :class:`HookError` on ``SimulationResult.hook_errors``
(and the ``sim_hook_errors_total`` metric), with a ``RuntimeWarning``
emitted so it cannot pass silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ReproError

#: Canonical phase order of one simulated time step (Section II-C).
PHASES = ("stimulus", "neuron", "synapse")

#: The callbacks a run delivers, in the order it first delivers them.
CALLBACKS = (
    "on_run_start", "on_step_start", "on_phase", "on_population", "on_run_end"
)


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

    def on_run_start(self, network, n_steps: int) -> None:
        """Called once before the first step of a ``Simulator.run``."""

    def on_step_start(self, step: int) -> None:
        """Called at the top of every simulated step."""

    def on_phase(self, phase: str, step: int, seconds: float, operations: int) -> None:
        """Called after each phase with its wall time and op count."""

    def on_population(
        self, population: str, step: int, seconds: float, operations: int
    ) -> None:
        """Called per block with its neuron-kernel wall time.

        Only fires while at least one attached hook overrides this
        method — the simulator skips the per-block clock reads
        otherwise.
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


#: One listener: the hook and its bound callback.
Listener = Tuple[PhaseHook, Callable[..., None]]


class HookDispatcher:
    """One run's user hooks, delivered under the failure contract above.

    ``listeners[callback]`` holds a :data:`Listener` for every hook that
    overrides ``callback``, so a hook costs exactly the callbacks it
    implements. Detaching a hook edits these lists in place, so the
    step loop binds them once per run.
    """

    def __init__(self, hooks: Sequence[PhaseHook]) -> None:
        self.listeners: Dict[str, List[Listener]] = {
            name: [
                (hook, getattr(hook, name))
                for hook in hooks
                if getattr(type(hook), name) is not getattr(PhaseHook, name)
            ]
            for name in CALLBACKS
        }
        #: One record per detached hook, in detach order.
        self.errors: List[HookError] = []
        #: ``(hook, listeners, exception)`` held since the last detach.
        self.failures: List[Tuple[PhaseHook, List[Listener], Exception]] = []

    def emit(self, listeners: List[Listener], *event) -> None:
        """Deliver ``event`` to ``listeners``: a ``ReproError``
        propagates, any other exception is held for
        :meth:`detach_failed`."""
        for hook, callback in listeners:
            try:
                callback(*event)
            except ReproError:
                raise
            except Exception as error:
                self.failures.append((hook, listeners, error))

    def detach_failed(self, step: int) -> None:
        """Detach every hook held since the last call: one
        :class:`HookError` (for its first failure) and one
        ``RuntimeWarning`` each."""
        names = {id(entries): name for name, entries in self.listeners.items()}
        detached = set()
        for hook, listeners, error in self.failures:
            if id(hook) in detached:
                continue
            detached.add(id(hook))
            for entries in self.listeners.values():
                entries[:] = [entry for entry in entries if entry[0] is not hook]
            record = HookError(
                hook=type(hook).__name__,
                callback=names[id(listeners)],
                step=step,
                error=repr(error),
            )
            self.errors.append(record)
            warnings.warn(
                f"simulation hook isolated: {record.describe()}",
                RuntimeWarning,
                stacklevel=3,
            )
        self.failures.clear()
