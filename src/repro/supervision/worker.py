"""The supervised worker: one simulation job in one spawned process.

:func:`worker_entry` is the ``multiprocessing`` target. It is
spawn-safe by construction: the process receives nothing but a pipe
connection; the first message on the pipe is the serialized
:class:`~repro.supervision.job.JobSpec` plus attempt context, and every
result travels back over the same pipe:

``("started", {...})``
    Sent once the simulator is built, with ``resumed_from_step`` > 0
    when a previous attempt's checkpoint was restored.
``("heartbeat", {"step": ..., "phase": ..., "rss_bytes": ...,
"cpu_seconds": ...})``
    The progress signal the supervisor's watchdog feeds on. Emitted
    from the per-phase event stream, throttled by wall clock so the
    hot loop pays one ``monotonic()`` read per phase. Each heartbeat
    carries a fresh :mod:`repro.health.resources` sample, so the
    supervisor exposes per-job RSS/CPU gauges without a second wire
    protocol (older supervisors ignore the extra keys).
``("done", {...})``
    Final spike digest, counts, run statistics, and the measured
    per-unit activity profile.
``("log", {...})``
    One structured ``repro-log/1`` record (see
    :mod:`repro.observability.log`), stamped with the sweep's
    ``run_id`` plus the job/attempt context — the supervisor merges
    these into the one ordered stream ``SweepReport.log_records``
    exposes, so worker logs survive the worker.
``("failed", {"kind": ..., "error": ..., "step": ..., "traceback":
..., "flight": {...}})``
    A structured failure the worker caught itself: ``numerics`` from
    the :class:`~repro.reliability.guard.NumericsGuard`, ``oom-like``
    from ``MemoryError``, ``crash`` for anything else — with the full
    traceback text and the flight-recorder dump riding along. Failures
    the worker *cannot* report (SIGKILL, a hard hang) are classified by
    the supervisor from the process exit code and heartbeat record; for
    those, the flight recorder's atomically-synced *sidecar file* and
    the captured stdout/stderr file are the post-mortem trail — the
    worker redirects its file descriptors at entry (``capture_path``),
    so even a traceback printed by the interpreter while dying before
    the first pipe message is preserved.

Checkpointing uses the reliability layer verbatim: a
:class:`~repro.reliability.checkpoint.CheckpointHook` writes the job's
checkpoint file every N steps (atomically), and a retried attempt
restores it so a kill costs only the interval since the last snapshot —
the resumed spike train is bit-identical to an uninterrupted run
(pinned by the chaos tests via :func:`~repro.supervision.job.spike_digest`).

The ``chaos_*`` fields of the spec make the worker sabotage itself at a
chosen step (SIGKILL, stall, raise, or NaN-poison its own state via the
reliability layer's :class:`~repro.reliability.faults.FaultInjector`) —
the supervised analogue of fault injection, used by the chaos tests and
the CI kill/resume smoke.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import Dict, Optional

from repro.assembly import assemble_job
from repro.supervision.job import JobSpec, spike_digest

#: Seconds between heartbeats (wall clock, not steps: a slow step still
#: heartbeats every phase, a fast run does not flood the pipe).
HEARTBEAT_INTERVAL = 0.1


def _profile_payload(spec: JobSpec, network, result, steps_run: int) -> dict:
    """Per-unit activity rates (the ``WorkloadProfile`` fields).

    Event rates are measured over the steps this attempt actually
    executed (``steps_run``); the firing rate uses the full spike train
    (which on a resumed run includes the checkpointed prefix) over the
    job's full duration.
    """
    duration = spec.steps * spec.dt
    n = network.n_neurons
    synapses = max(1, network.n_synapses)
    steps_run = max(1, steps_run)
    evaluations = result.evaluations_per_step
    mean_evals = (
        sum(evaluations.values()) / len(evaluations) if evaluations else 1.0
    )
    model = next(iter(network.populations.values())).model
    return {
        "name": spec.workload,
        "scale": spec.scale,
        "n_neurons": n,
        "n_synapses": network.n_synapses,
        "firing_rate_hz": result.total_spikes() / max(1, n) / duration,
        "synaptic_event_rate": result.synaptic_events / steps_run / synapses,
        "stimulus_event_rate": result.stimulus_events / steps_run / max(1, n),
        "evaluations_per_step": mean_evals,
        "ops_per_update": dict(model.ops_per_update()),
    }


class _HeartbeatHook:
    """Sends throttled progress heartbeats over the pipe.

    Implemented against the :class:`~repro.engine.hooks.PhaseHook`
    protocol (duck-typed; it subclasses the real base at import time in
    :func:`_make_hooks` to keep this module import-light for spawn).

    Each sent heartbeat is also recorded into the flight recorder and
    the recorder's sidecar is synced (throttled by its own interval) —
    the heartbeat cadence is what keeps the crash trail fresh.
    """

    def __init__(self, conn, interval: float = HEARTBEAT_INTERVAL,
                 flight=None, spans=None) -> None:
        from repro.health.resources import ResourceSampler

        self.conn = conn
        self.interval = interval
        self.flight = flight
        self.spans = spans
        self._resources = ResourceSampler()
        self._last = time.monotonic()
        self._broken = False

    def beat(self, step: int, phase: str) -> None:
        now = time.monotonic()
        if now - self._last < self.interval:
            return
        self._last = now
        if self.flight is not None:
            self.flight.record("heartbeat", step=step, phase=phase)
            self.flight.sync()
        if self.spans is not None:
            # The heartbeat cadence keeps the span sidecar fresh too —
            # the SIGKILL exit path for this process's trace ring.
            self.spans.sync()
        if self._broken:
            return
        sample = self._resources.sample()
        try:
            self.conn.send(
                ("heartbeat",
                 {"step": step, "phase": phase, "ts": time.time(),
                  "rss_bytes": sample["rss_bytes"],
                  "cpu_seconds": sample["cpu_seconds"]})
            )
        except (BrokenPipeError, OSError):
            # The supervisor went away; keep simulating — the final
            # "done" send will fail loudly if the pipe is truly dead.
            self._broken = True


class _ChaosHook:
    """Self-sabotage at a chosen step (chaos tests / CI smoke)."""

    def __init__(self, spec: JobSpec, simulator, attempt: int,
                 degraded: bool, flight=None, spans=None) -> None:
        self.spec = spec
        self.simulator = simulator
        self.flight = flight
        self.spans = spans
        #: Kill/stall/crash chaos applies on one attempt only.
        self.armed = attempt == spec.chaos_attempt
        #: NaN chaos applies while the job still runs its original
        #: backend — the degraded solver path is the "safe" target.
        self.nan_armed = spec.chaos_nan_at_step is not None and not degraded

    def trigger(self, step: int) -> None:
        spec = self.spec
        if self.armed and step == spec.chaos_kill_at_step:
            if self.flight is not None:
                # The kill is instant; force the sidecar out first so
                # the post-mortem sees the trigger itself.
                self.flight.record("chaos", action="kill", step=step)
                self.flight.sync(force=True)
            if self.spans is not None:
                self.spans.sync(force=True)
            os.kill(os.getpid(), signal.SIGKILL)
        if self.armed and step == spec.chaos_stall_at_step:
            if self.spans is not None:
                self.spans.sync(force=True)
            while True:  # pragma: no cover - killed by the watchdog
                time.sleep(3600)
        if self.armed and step == spec.chaos_crash_at_step:
            # A ReproError propagates out of the hook dispatch (plain
            # exceptions would merely detach the hook), so the worker's
            # top-level handler reports it as a structured crash.
            from repro.errors import SupervisionError

            raise SupervisionError(f"chaos crash injected at step {step}")
        if self.nan_armed and step == spec.chaos_nan_at_step:
            from repro.reliability.faults import FaultInjector

            population = next(iter(self.simulator.network.populations))
            FaultInjector(self.simulator, seed=spec.seed).inject_nan(
                population
            )


def _make_hooks(spec: JobSpec, simulator, conn, attempt: int,
                degraded: bool, checkpoint_path: Optional[str],
                checkpoint_every: int, heartbeat_interval: float,
                flight=None, spans=None):
    """Assemble the worker's hook stack (imports deferred for spawn)."""
    from repro.engine.hooks import PhaseHook
    from repro.reliability.checkpoint import CheckpointHook
    from repro.reliability.guard import NumericsGuard

    heartbeat = _HeartbeatHook(
        conn, heartbeat_interval, flight=flight, spans=spans
    )
    chaos = _ChaosHook(
        spec, simulator, attempt, degraded, flight=flight, spans=spans
    )

    class WorkerHook(PhaseHook):
        """Heartbeats + chaos + spans, fused into one hook dispatch."""

        def on_step_start(self, step: int) -> None:
            chaos.trigger(step)

        def on_phase(self, phase: str, step: int, seconds: float,
                     operations: int) -> None:
            heartbeat.beat(step, phase)
            if spans is not None:
                spans.record(
                    phase, "phase", time.time() - seconds, seconds,
                    args={"step": step},
                )

    hooks = [WorkerHook(), NumericsGuard(simulator.backend)]
    if checkpoint_path and checkpoint_every > 0:
        hooks.append(
            CheckpointHook(simulator, checkpoint_every, checkpoint_path)
        )
    return hooks


def run_job_inline(spec: JobSpec) -> Dict[str, object]:
    """Run a job to completion in-process, unsupervised.

    The uninterrupted baseline the chaos tests compare digests
    against — same build path, same seeding, no subprocess.
    """
    simulator = assemble_job(spec).simulator()
    result = simulator.run(spec.steps)
    return {
        "steps": simulator.current_step,
        "total_spikes": result.total_spikes(),
        "spike_digest": spike_digest(result.spikes),
        "stats": result.to_stats_dict(),
        "profile": _profile_payload(
            spec, simulator.network, result, spec.steps
        ),
    }


def _redirect_output(capture_path: str) -> None:
    """Point this process's stdout/stderr file descriptors at a file.

    Done with ``dup2`` on fds 1 and 2 (not by rebinding ``sys.stdout``)
    so *everything* lands in the capture file: Python tracebacks the
    ``multiprocessing`` bootstrap prints for failures that escape
    :func:`worker_entry`, warnings, and even C-level output. This is
    what leaves a trail for a worker that dies before its first pipe
    message.
    """
    fd = os.open(
        capture_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
    )
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(fd, 1)
        os.dup2(fd, 2)
    finally:
        os.close(fd)
    # Rebind the high-level streams onto the redirected descriptors
    # with line buffering, so print() output is visible promptly.
    sys.stdout = os.fdopen(1, "w", buffering=1, closefd=False)
    sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)


def worker_entry(conn, capture_path: Optional[str] = None) -> None:
    """Process target: receive a job over ``conn``, run it, report back.

    ``capture_path`` (passed as a process argument, not over the pipe,
    so it is active before the first ``recv``) redirects the worker's
    stdout/stderr into a file the supervisor reads back on failure.
    """
    # The supervisor owns this process's lifecycle (it SIGKILLs on
    # deadline/stall); a terminal Ctrl-C must interrupt the supervisor,
    # not race it by killing workers directly.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    if capture_path:
        _redirect_output(capture_path)
    payload = conn.recv()
    spec = JobSpec.from_payload(payload["spec"])
    attempt = int(payload.get("attempt", 0))
    degraded = bool(payload.get("degraded", False))
    checkpoint_path = payload.get("checkpoint_path")
    checkpoint_every = int(payload.get("checkpoint_every", 0))
    heartbeat_interval = float(
        payload.get("heartbeat_interval", HEARTBEAT_INTERVAL)
    )
    run_id = str(payload.get("run_id", ""))
    flight_path = payload.get("flight_path")

    from repro.errors import CheckpointError, NumericsError
    from repro.observability.log import StructuredLogger
    from repro.observability.recorder import FlightRecorder
    from repro.provenance import SpanRecorder, TraceContext
    from repro.reliability.checkpoint import Checkpoint

    context = {"run_id": run_id, "job": spec.name, "attempt": attempt}
    flight = FlightRecorder(
        capacity=int(payload.get("flight_capacity", 256)),
        context=context,
        sidecar_path=flight_path,
        sync_interval=float(payload.get("flight_sync_interval", 1.0)),
    )
    trace_context = TraceContext.from_payload(
        payload.get("trace")
        or {"run_id": run_id, "job_id": spec.name, "attempt": attempt}
    )
    spans = SpanRecorder(
        trace_context, sidecar_path=payload.get("spans_path")
    )

    def pipe_sink(record: dict) -> None:
        try:
            conn.send(("log", record))
        except (BrokenPipeError, OSError):
            raise RuntimeError("pipe gone")  # logger drops this sink

    log = StructuredLogger(
        dict(context, component="worker"),
        sinks=[flight.observe_log, pipe_sink],
    )

    step = -1
    try:
        simulator = assemble_job(spec).simulator()
        spikes = None
        resumed_from = 0
        if checkpoint_path and os.path.exists(checkpoint_path):
            try:
                checkpoint = Checkpoint.load(checkpoint_path)
                checkpoint.restore(simulator)
                spikes = checkpoint.seed_recorder()
                resumed_from = simulator.current_step
            except CheckpointError as error:
                # A stale or torn-signature checkpoint must not wedge
                # the job forever: start fresh instead.
                log.warning(
                    "checkpoint-rejected",
                    f"checkpoint {checkpoint_path!r} rejected; starting "
                    f"fresh",
                    error=repr(error),
                )
                simulator = assemble_job(spec).simulator()
        conn.send(
            ("started", {
                "pid": os.getpid(),
                "attempt": attempt,
                "resumed_from_step": resumed_from,
                "ts": time.time(),
            })
        )
        log.info(
            "worker-started",
            f"attempt {attempt} of {spec.name!r} on {spec.backend!r}",
            workload=spec.workload,
            backend=spec.backend,
            degraded=degraded,
            resumed_from_step=resumed_from,
        )
        # One guaranteed sidecar write before the run: even a worker
        # killed on its very first step leaves a non-empty trail.
        flight.sync(force=True)
        hooks = _make_hooks(
            spec, simulator, conn, attempt, degraded,
            checkpoint_path, checkpoint_every, heartbeat_interval,
            flight=flight, spans=spans,
        )
        remaining = spec.steps - resumed_from
        if remaining < 0:
            raise CheckpointError(
                f"checkpoint at step {resumed_from} is past the job's "
                f"{spec.steps} steps"
            )
        result = simulator.run(remaining, hooks=hooks, spikes=spikes)
        step = simulator.current_step
        log.info(
            "worker-done",
            f"{spec.name!r} completed at step {step}",
            steps=step,
            total_spikes=result.total_spikes(),
        )
        conn.send(
            ("done", {
                "steps": step,
                "resumed_from_step": resumed_from,
                "total_spikes": result.total_spikes(),
                "spike_digest": spike_digest(result.spikes),
                "stats": result.to_stats_dict(),
                "profile": _profile_payload(
                    spec, simulator.network, result, max(1, remaining)
                ),
                "spans": spans.dump(),
            })
        )
    except NumericsError as error:
        _send_failure(
            conn, "numerics", error, getattr(error, "step", step), flight,
            log, spans,
        )
        sys.exit(1)
    except MemoryError as error:
        _send_failure(conn, "oom-like", error, step, flight, log, spans)
        sys.exit(1)
    except BaseException as error:  # noqa: BLE001 - classified, reported
        _send_failure(conn, "crash", error, step, flight, log, spans)
        sys.exit(1)
    finally:
        conn.close()


def _send_failure(
    conn, kind: str, error: BaseException, step: int, flight=None, log=None,
    spans=None,
) -> None:
    """Report a caught failure: traceback to stderr (the capture file),
    a log record, a forced flight-recorder sync, and the structured
    ``failed`` message carrying the flight dump."""
    import traceback

    traceback.print_exc(file=sys.stderr)
    sys.stderr.flush()
    trace_text = traceback.format_exc()
    if log is not None:
        log.error(
            "worker-failed",
            f"{kind} failure at step {step}: {error!r}",
            kind=kind,
            step=step,
            error=repr(error),
        )
    flight_dump = None
    if flight is not None:
        flight.record(
            "failure", failure_kind=kind, step=step, error=repr(error)
        )
        try:
            flight.sync(force=True)
        except OSError:  # pragma: no cover - sidecar dir gone
            pass
        flight_dump = flight.dump()
    try:
        conn.send(
            ("failed", {
                "kind": kind,
                "error": repr(error),
                "step": step,
                "traceback": trace_text,
                "flight": flight_dump,
                "spans": spans.dump() if spans is not None else None,
            })
        )
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass
