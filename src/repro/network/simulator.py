"""The three-phase time-step simulation loop (Section II-C).

Each simulated time step runs:

1. **Stimulus generation** — external sources forge spikes and inject
   them into their target populations' current input slots.
2. **Neuron computation** — the backend consumes every population's
   accumulated input, updates internal state, and reports which neurons
   fired, one ``advance`` call per *block* of populations that share a
   model (:func:`advance_blocks`). (This is the phase Flexon
   accelerates.)
3. **Synapse calculation** — the fired spikes are classified by target
   neuron through each projection, and their synaptic weights are
   accumulated into the input slots ``delay`` steps ahead.

The loop itself follows the engine layer's compile-once/step-many
discipline: the per-step schedule (stimulus routing, population order,
projection fan-out, plasticity bindings) is resolved once per run, and
input/fired buffers are reused rather than reallocated. Per-phase
wall-clock time and abstract operation counts are emitted through the
:class:`~repro.engine.hooks.PhaseHook` API; the built-in
:class:`~repro.engine.hooks.PhaseTimer` feeds the Figure 3 / Figure 13
cost models and the pytest benchmarks, and callers can attach their own
hooks for tracing or profiling. Each op count has exactly one counting
path: the phase stats are the source of truth, and the result's
convenience counters are derived from them, so "neuron updates" can
never drift from the neuron phase's operation count. State-recorder
sampling is timed separately (``SimulationResult.recording_seconds``)
and deliberately charged to *no* phase — it is measurement overhead,
not simulation work — so phase fractions both sum to one and reflect
only the three real phases.

Two observability seams ride on the loop without taxing it when off:

* ``hooks`` are dispatched through per-callback lists built once per
  run from which callbacks each hook actually overrides, so a hook
  that only implements ``on_run_end`` costs nothing per step.
  Kernel spans (``on_population``, one per block per step) are only
  timed while a span-consuming hook is attached. Hook failures follow the
  semantics pinned in :mod:`repro.engine.hooks`: structured
  ``ReproError``\\ s propagate after the phase is closed, anything else
  is isolated into ``SimulationResult.hook_errors``.
* ``metrics`` accepts a
  :class:`~repro.telemetry.registry.MetricsRegistry`; the loop then
  observes each step's duration into a histogram, and at run end the
  phase totals, spike/queue counters, the backend's per-runtime
  counters (advances, saturation, activity), and the
  reliability diagnostics are published as ordinary counters/gauges.
  The JSON snapshot lands on ``SimulationResult.metrics``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.hooks import (
    PHASES,
    HookError,
    PhaseHook,
    PhaseStats,
    PhaseTimer,
)
from repro.errors import ReproError, RunInterrupted, SimulationError
from repro.network.backends import ReferenceBackend, RuntimeBackend
from repro.network.network import Network
from repro.network.recorder import SpikeRecorder, StateRecorder
from repro.network.stimulus import StimulusPlan
from repro.reliability.diagnostics import RunDiagnostics
from repro.routing import DelayRing, SpikeRouter

__all__ = [
    "PHASES",
    "RUN_STATS_SCHEMA",
    "HookError",
    "PhaseStats",
    "SimulationResult",
    "Simulator",
    "advance_blocks",
    "bind_blocks",
]

#: Schema of :meth:`SimulationResult.to_stats_dict` (``--stats-json``).
RUN_STATS_SCHEMA = "repro-run-stats/3"

#: One bound block: its name, its size, the callable that returns this
#: step's ``(n_synapse_types, n)`` input, and its ``(population, lo,
#: hi)`` members.
BoundBlock = Tuple[str, int, Callable[[], np.ndarray], tuple]


def bind_blocks(backend: RuntimeBackend, rings: Dict[str, DelayRing]) -> List[BoundBlock]:
    """Bind the backend's block schedule to the populations' rings.

    A block of one reads its ring's current bucket as is. A fused block
    gets one preallocated input over all its columns, and each step
    copies every member's bucket into that member's columns.
    """

    def gathered(members) -> Callable[[], np.ndarray]:
        first = rings[members[0][0]]
        inputs = np.empty((first.n_synapse_types, members[-1][2]))
        parts = [
            (rings[name].current, inputs[:, lo:hi]) for name, lo, hi in members
        ]

        def gather() -> np.ndarray:
            for current, columns in parts:
                columns[...] = current()
            return inputs

        return gather

    return [
        (
            block.name,
            block.n,
            rings[block.name].current
            if len(block.members) == 1
            else gathered(block.members),
            block.members,
        )
        for block in backend.blocks
    ]


def advance_blocks(
    advance: Callable[[str, np.ndarray, float], np.ndarray],
    blocks: Sequence[BoundBlock],
    dt: float,
    fired_index: Dict[str, np.ndarray],
    on_block: Optional[Callable[[str, float, int], None]] = None,
) -> None:
    """The neuron phase: one ``advance`` per block, then every member
    population's fired indices cut from the block's one mask into
    ``fired_index``. ``on_block(name, seconds, updates)`` receives each
    block's kernel span; the clock is only read when it is given.
    """
    for name, n_block, gather, members in blocks:
        if on_block is not None:
            start = time.perf_counter()
        fired = advance(name, gather(), dt)
        if on_block is not None:
            on_block(name, time.perf_counter() - start, n_block)
        for population, lo, hi in members:
            fired_index[population] = np.nonzero(fired[lo:hi])[0]


@dataclass
class SimulationResult:
    """Everything a run produced: spikes, per-phase costs, counters.

    The convenience counters (``neuron_updates``, ``synaptic_events``,
    ``stimulus_events``) are exactly the operation counts of their
    phases — one counting path, no independent tallies.
    """

    network_name: str
    backend_name: str
    n_steps: int
    dt: float
    spikes: SpikeRecorder
    phases: Dict[str, PhaseStats]
    evaluations_per_step: Dict[str, float] = field(default_factory=dict)
    #: The neuron phase's schedule: block name -> member populations, in
    #: stepping order (kernel spans are per block).
    blocks: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Wall-clock spent sampling state recorders; charged to no phase.
    recording_seconds: float = 0.0
    #: What the reliability layer observed: fixed-point saturation
    #: accounting (empty == nothing clipped).
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)
    #: User hooks isolated mid-run (empty == every hook behaved).
    hook_errors: List[HookError] = field(default_factory=list)
    #: JSON snapshot of the run's metrics registry (None when the run
    #: was not passed a registry).
    metrics: Optional[Dict[str, dict]] = None

    @property
    def neuron_updates(self) -> int:
        """Total neuron updates (the neuron phase's op count)."""
        return self.phases["neuron"].operations

    @property
    def synaptic_events(self) -> int:
        """Total synaptic events (the synapse phase's op count)."""
        return self.phases["synapse"].operations

    @property
    def stimulus_events(self) -> int:
        """Total stimulus events (the stimulus phase's op count)."""
        return self.phases["stimulus"].operations

    @property
    def total_seconds(self) -> float:
        return sum(stats.seconds for stats in self.phases.values())

    def phase_fractions(self) -> Dict[str, float]:
        """Wall-clock share of each phase (sums to 1 when any time passed).

        Every canonical phase is always present in the result — a
        phase with no recorded stats (or a zero-duration run) reports
        a fraction of exactly 0.0 rather than going missing.
        """
        total = self.total_seconds
        fractions = {phase: 0.0 for phase in PHASES}
        if total <= 0.0:
            return fractions
        for phase, stats in self.phases.items():
            fractions[phase] = stats.seconds / total
        return fractions

    def total_spikes(self) -> int:
        return self.spikes.total_spikes()

    def to_stats_dict(self) -> dict:
        """The run's statistics as one JSON-serialisable document.

        This is what ``repro run --stats-json`` writes, so experiments
        consume structured output instead of scraping stdout.
        """
        phases = {
            name: {"seconds": stats.seconds, "operations": stats.operations}
            for name, stats in self.phases.items()
        }
        counters = {
            name: self.phases[phase].operations
            for name, phase in (
                ("neuron_updates", "neuron"),
                ("synaptic_events", "synapse"),
                ("stimulus_events", "stimulus"),
            )
            if phase in self.phases
        }
        counters["total_spikes"] = self.total_spikes()
        return {
            "schema": RUN_STATS_SCHEMA,
            "network": self.network_name,
            "backend": self.backend_name,
            "n_steps": self.n_steps,
            "dt": self.dt,
            "total_seconds": self.total_seconds,
            "recording_seconds": self.recording_seconds,
            "phases": phases,
            "phase_fractions": self.phase_fractions(),
            "counters": counters,
            "spike_digest": self.spikes.digest(),
            "spikes_per_population": {
                name: self.spikes.result(name).n_spikes
                for name in self.spikes.populations()
            },
            "evaluations_per_step": dict(self.evaluations_per_step),
            "diagnostics": self.diagnostics.to_dict(),
            "hook_errors": [asdict(error) for error in self.hook_errors],
            "metrics": self.metrics,
        }


class Simulator:
    """Runs a :class:`~repro.network.network.Network` step by step."""

    def __init__(
        self,
        network: Network,
        backend: Optional[RuntimeBackend] = None,
        dt: float = 1e-4,
        seed: int = 0,
    ):
        if not 0 < dt < math.inf:  # NaN fails too
            raise SimulationError(f"dt must be positive and finite, got {dt}")
        self.network = network
        self.backend = backend if backend is not None else ReferenceBackend()
        self.dt = dt
        self.backend.prepare(network)
        self._router = SpikeRouter.from_network(network)
        self._queues: Dict[str, DelayRing] = self._router.rings
        #: Owns all stimulus state; ``seed`` is its whole random state.
        self.stimulus_plan = StimulusPlan(network.stimuli, self._queues, seed)
        # Runtimes that understand the routing layer (the event-driven
        # monitors) get their population's ring bound once, so they can
        # consult exact event counts instead of scanning dense input.
        for name, runtime in self.backend.runtimes.items():
            runtime.bind_ring(self._router.ring(name))
        self._step = 0
        self._live_spikes: Optional[SpikeRecorder] = None

    @property
    def router(self) -> SpikeRouter:
        """The routing layer: every population's delay ring."""
        return self._router

    @property
    def queues(self) -> Dict[str, DelayRing]:
        """The per-population delay rings (checkpointing, fault models)."""
        return self._queues

    @property
    def live_spikes(self) -> Optional[SpikeRecorder]:
        """The recorder of the run in progress (None outside ``run``).

        Mid-run checkpoint capture reads this so a checkpoint can carry
        the spike history recorded so far.
        """
        return self._live_spikes

    # -- schedule compilation -------------------------------------------------

    def _compile_schedule(self):
        """Resolve the per-step work lists once, outside the hot loop.

        Everything the loop needs per step — each block's input and
        members, where a projection's spikes land, which recorded
        populations a plasticity rule reads — is bound here so the loop
        performs no dict lookups or attribute chasing of its own.
        """
        network = self.network
        blocks = bind_blocks(self.backend, self._queues)
        projections = [
            (
                projection,
                projection.pre.name,
                self._queues[projection.post.name],
                projection.syn_type,
            )
            for projection in network.projections
        ]
        plasticity = [
            (rule, rule.projection.pre.name, rule.projection.post.name)
            for rule in network.plasticity_rules
        ]
        return blocks, projections, plasticity

    @staticmethod
    def _hook_dispatch(hooks: Sequence[PhaseHook]):
        """Per-callback dispatch lists: only hooks that override a
        callback are called for it, so an attached hook costs exactly
        the callbacks it implements.
        """

        def overriding(callback: str) -> List[PhaseHook]:
            base = getattr(PhaseHook, callback)
            return [
                hook
                for hook in hooks
                if getattr(type(hook), callback) is not base
            ]

        span_hooks = [
            hook
            for hook in overriding("on_population")
            if getattr(hook, "wants_population_spans", True)
        ]
        return {
            "on_run_start": overriding("on_run_start"),
            "on_step_start": overriding("on_step_start"),
            "on_phase": overriding("on_phase"),
            "on_population": span_hooks,
            "on_run_end": overriding("on_run_end"),
        }

    # -- main loop ------------------------------------------------------------

    def run(
        self,
        n_steps: int,
        record_spikes: bool = True,
        state_recorders: Sequence[StateRecorder] = (),
        hooks: Sequence[PhaseHook] = (),
        spikes: Optional[SpikeRecorder] = None,
        metrics=None,
    ) -> SimulationResult:
        """Simulate ``n_steps`` time steps and return the results.

        ``hooks`` receive the per-phase event stream (see
        :class:`~repro.engine.hooks.PhaseHook`); the built-in timer
        that produces ``result.phases`` is always attached. ``spikes``
        optionally supplies the recorder to append into — a resumed run
        passes ``Checkpoint.seed_recorder()`` so the result reports the
        full spike train, not just the resumed tail. ``metrics``
        optionally supplies a
        :class:`~repro.telemetry.registry.MetricsRegistry` the run
        publishes into (its JSON snapshot lands on
        ``result.metrics``).
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be non-negative, got {n_steps}")
        recorder = spikes if spikes is not None else SpikeRecorder()
        self._live_spikes = recorder
        spikes_before = recorder.total_spikes()
        timer = PhaseTimer()
        timer_on_phase = timer.on_phase
        dispatch = self._hook_dispatch(tuple(hooks))
        # Hot-path dispatch tables pre-bind each hook's callback so the
        # step loop never pays per-event method binding; they are
        # rebuilt by ``isolate_failures`` whenever a hook is detached.
        step_dispatch = [(h, h.on_step_start) for h in dispatch["on_step_start"]]
        phase_dispatch = [(h, h.on_phase) for h in dispatch["on_phase"]]
        span_dispatch = [(h, h.on_population) for h in dispatch["on_population"]]
        hook_errors: List[HookError] = []
        failures: List[Tuple[PhaseHook, str, Exception]] = []

        def isolate_failures(step: int) -> None:
            """Detach every just-failed hook and record why (see
            repro.engine.hooks for the pinned semantics). A hook that
            raised from several callbacks before this end-of-step sweep
            is recorded once, for its first failure."""
            nonlocal step_dispatch, phase_dispatch, span_dispatch
            seen = set()
            for hook, callback, error in failures:
                if id(hook) in seen:
                    continue
                seen.add(id(hook))
                for lst in dispatch.values():
                    while hook in lst:
                        lst.remove(hook)
                record = HookError(
                    hook=type(hook).__name__,
                    callback=callback,
                    step=step,
                    error=repr(error),
                )
                hook_errors.append(record)
                warnings.warn(
                    f"simulation hook isolated: {record.describe()}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            failures.clear()
            step_dispatch = [
                (h, h.on_step_start) for h in dispatch["on_step_start"]
            ]
            phase_dispatch = [(h, h.on_phase) for h in dispatch["on_phase"]]
            span_dispatch = [
                (h, h.on_population) for h in dispatch["on_population"]
            ]

        observe_step = (
            metrics.histogram(
                "sim_step_seconds",
                "Wall-clock duration of one full simulated step.",
            ).observe
            if metrics is not None
            else None
        )
        blocks, projections, plasticity = self._compile_schedule()
        populations = tuple(self.network.populations)
        n_neurons = self.network.n_neurons
        inject_stimuli = self.stimulus_plan.inject
        recorder_bindings = [
            (state_recorder, state_recorder.population)
            for state_recorder in state_recorders
        ]
        recording_seconds = 0.0
        fired_index: Dict[str, np.ndarray] = {}
        perf_counter = time.perf_counter
        dt = self.dt
        backend_advance = self.backend.advance

        def emit_span(block: str, seconds: float, updates: int) -> None:
            for hook, callback in span_dispatch:
                try:
                    callback(block, step, seconds, updates)
                except ReproError:
                    raise
                except Exception as error:
                    failures.append((hook, "on_population", error))

        def finish(steps_done: int) -> SimulationResult:
            """The result of the steps run so far: what a finished run
            returns and what an interrupted one carries."""
            evaluations = {
                name: self.backend.evaluations_per_step(name)
                for name in populations
            }
            diagnostics = self._collect_diagnostics()
            if metrics is not None:
                self._publish_metrics(
                    metrics,
                    timer=timer,
                    n_steps=steps_done,
                    run_spikes=recorder.total_spikes() - spikes_before,
                    recording_seconds=recording_seconds,
                    evaluations=evaluations,
                    hook_errors=hook_errors,
                )
            return SimulationResult(
                network_name=self.network.name,
                backend_name=self.backend.name,
                n_steps=steps_done,
                dt=self.dt,
                spikes=recorder,
                phases=timer.phases,
                evaluations_per_step=evaluations,
                blocks={
                    name: tuple(member for member, _, _ in members)
                    for name, _, _, members in blocks
                },
                recording_seconds=recording_seconds,
                diagnostics=diagnostics,
                hook_errors=hook_errors,
                metrics=metrics.snapshot() if metrics is not None else None,
            )

        for hook in dispatch["on_run_start"]:
            try:
                hook.on_run_start(self.network, n_steps)
            except ReproError:
                raise
            except Exception as error:
                failures.append((hook, "on_run_start", error))
        if failures:
            isolate_failures(self._step)

        first_step = self._step
        try:
            for _ in range(n_steps):
                step = self._step
                for hook, callback in step_dispatch:
                    try:
                        callback(step)
                    except ReproError:
                        raise
                    except Exception as error:
                        failures.append((hook, "on_step_start", error))

                # Phase 1: stimulus generation
                start = perf_counter()
                events = inject_stimuli(step)
                stimulus_elapsed = perf_counter() - start
                timer_on_phase("stimulus", step, stimulus_elapsed, events)
                for hook, callback in phase_dispatch:
                    try:
                        callback("stimulus", step, stimulus_elapsed, events)
                    except ReproError:
                        raise
                    except Exception as error:
                        failures.append((hook, "on_phase", error))

                # Phase 2: neuron computation, one kernel call per block.
                start = perf_counter()
                advance_blocks(
                    backend_advance,
                    blocks,
                    dt,
                    fired_index,
                    emit_span if span_dispatch else None,
                )
                if record_spikes:
                    for name in populations:
                        recorder.record_indices(name, step, fired_index[name])
                neuron_elapsed = perf_counter() - start
                timer_on_phase("neuron", step, neuron_elapsed, n_neurons)
                for hook, callback in phase_dispatch:
                    try:
                        callback("neuron", step, neuron_elapsed, n_neurons)
                    except ReproError:
                        raise
                    except Exception as error:
                        failures.append((hook, "on_phase", error))

                # State-recorder sampling: measurement overhead, charged
                # to no phase (it used to be silently billed as neuron
                # time).
                if recorder_bindings:
                    start = perf_counter()
                    for state_recorder, population in recorder_bindings:
                        state_recorder.sample(self.backend.state_of(population))
                    recording_seconds += perf_counter() - start

                # Phase 3: synapse calculation (spike routing + plasticity)
                start = perf_counter()
                events = 0
                for projection, pre_name, post_queue, syn_type in projections:
                    fired_pre = fired_index.get(pre_name)
                    if fired_pre is None or fired_pre.size == 0:
                        continue
                    targets, weights, counts = projection.synapses_of(
                        fired_pre
                    )
                    post_queue.enqueue(targets, weights, counts, syn_type)
                    events += targets.size
                for rule, pre_name, post_name in plasticity:
                    rule.step(fired_index[pre_name], fired_index[post_name], dt)
                synapse_elapsed = perf_counter() - start
                timer_on_phase("synapse", step, synapse_elapsed, events)
                for hook, callback in phase_dispatch:
                    try:
                        callback("synapse", step, synapse_elapsed, events)
                    except ReproError:
                        raise
                    except Exception as error:
                        failures.append((hook, "on_phase", error))

                if observe_step is not None:
                    observe_step(
                        stimulus_elapsed + neuron_elapsed + synapse_elapsed
                    )
                if failures:
                    isolate_failures(step)

                self._router.rotate_all()
                self._step += 1
        except RunInterrupted as stop:
            # Raised at a step boundary: the steps before it are whole.
            stop.result = finish(self._step - first_step)
            raise
        finally:
            self._live_spikes = None

        result = finish(n_steps)
        for hook in dispatch["on_run_end"]:
            try:
                hook.on_run_end(result)
            except ReproError:
                raise
            except Exception as error:
                failures.append((hook, "on_run_end", error))
        if failures:
            isolate_failures(self._step)
        return result

    # -- telemetry ------------------------------------------------------------

    def _publish_metrics(
        self,
        metrics,
        timer: PhaseTimer,
        n_steps: int,
        run_spikes: int,
        recording_seconds: float,
        evaluations: Dict[str, float],
        hook_errors: List[HookError],
    ) -> None:
        """Publish the run's observations into the metrics registry.

        Everything here is collect-time work — the hot loop's only
        registry interaction is the step-duration histogram. Lifetime
        tallies (queue enqueues, runtime advances, saturation clips)
        are published with ``set_total``, so re-running the same
        simulator against the same registry keeps counters monotone;
        use one registry per simulator.
        """
        for phase, stats in timer.phases.items():
            labels = {"phase": phase}
            metrics.counter(
                "sim_phase_seconds_total",
                "Wall-clock seconds spent per simulation phase.",
                labels,
            ).inc(stats.seconds)
            metrics.counter(
                "sim_phase_operations_total",
                "Abstract operations performed per simulation phase.",
                labels,
            ).inc(stats.operations)
        metrics.counter(
            "sim_steps_total", "Simulated time steps completed."
        ).inc(n_steps)
        metrics.counter(
            "sim_spikes_total", "Spikes recorded across all populations."
        ).inc(run_spikes)
        metrics.counter(
            "sim_recording_seconds_total",
            "Wall-clock seconds spent sampling state recorders.",
        ).inc(recording_seconds)
        metrics.counter(
            "sim_hook_errors_total",
            "User hooks isolated after raising an unexpected exception.",
        ).inc(len(hook_errors))
        for name, queue in self._queues.items():
            labels = {"population": name}
            metrics.counter(
                "spike_queue_enqueued_total",
                "Spike deliveries accumulated into the delay ring.",
                labels,
            ).set_total(queue.enqueued_events)
            metrics.gauge(
                "spike_queue_pending_weight",
                "Sum of in-flight synaptic weight awaiting delivery.",
                labels,
            ).set(queue.pending_weight())
            metrics.gauge(
                "spike_queue_pending_events",
                "In-flight deliveries awaiting their arrival step.",
                labels,
            ).set(queue.pending_total())
        self._router.publish_metrics(metrics)
        for rule in self.network.plasticity_rules:
            rule.publish_metrics(metrics)
        for name, value in evaluations.items():
            metrics.gauge(
                "runtime_evaluations_per_step",
                "Solver evaluations charged per step.",
                {"population": name},
            ).set(value)
        self.backend.publish_metrics(metrics)

    def _collect_diagnostics(self) -> RunDiagnostics:
        """Gather reliability observations from the backend's runtimes.

        Saturation counters accumulate over the simulator's lifetime,
        so a result reflects everything observed up to its run's end.
        """
        diagnostics = RunDiagnostics()
        for name, runtime in self.backend.runtimes.items():
            stats = getattr(runtime, "saturation_stats", None)
            if stats is not None:
                diagnostics.saturation[name] = stats
        return diagnostics

    @property
    def current_step(self) -> int:
        """Number of steps simulated so far."""
        return self._step
