"""Job descriptions, failure taxonomy, and structured reports.

A :class:`JobSpec` is the unit of supervised work: one workload on one
backend for a fixed number of steps with a fixed seed. It is a plain,
picklable value object — the supervisor serializes it over a pipe to a
spawned worker process, so it must never carry live simulator state.

Failures are classified into four kinds (:data:`FAILURE_KINDS`):

``timeout``
    The watchdog killed the worker — either the per-job wall-clock
    deadline expired or progress heartbeats stalled for longer than
    the heartbeat timeout.
``crash``
    The worker raised an unexpected exception, or the process exited
    abnormally (non-zero exit, unexpected signal, broken pipe).
``numerics``
    The worker's :class:`~repro.reliability.guard.NumericsGuard`
    raised a structured :class:`~repro.errors.NumericsError` —
    simulation state went NaN/Inf or diverged. Repeated numerics
    failures trip the supervisor's per-backend circuit breaker.
``oom-like``
    The process died from SIGKILL without the supervisor sending it
    (the kernel OOM killer's signature) or raised ``MemoryError``.

Every attempt produces an :class:`AttemptReport`; the attempts of one
job roll up into a :class:`JobReport`; the jobs of one sweep roll up
into a :class:`SweepReport` whose ``to_dict`` is what ``repro sweep
--stats-json`` writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import SupervisionError

__all__ = [
    "FAILURE_KINDS",
    "AttemptReport",
    "JobReport",
    "JobSpec",
    "SweepReport",
    "spike_digest",
]

#: The closed failure taxonomy (see module docstring).
FAILURE_KINDS = ("timeout", "crash", "numerics", "oom-like")

#: Worker backends a job may name. ``solver`` is the dict-state
#: reference solver path (``ReferenceBackend(use_engine=False)``) — the
#: degradation target of the circuit breaker, mirroring
#: ``FallbackRuntime`` semantics at the job level.
JOB_BACKENDS = ("reference", "solver", "flexon", "folded")


@dataclass(frozen=True)
class JobSpec:
    """One supervised simulation job (picklable, spawn-safe).

    The ``chaos_*`` fields exist for the chaos tests and the CI
    kill/resume smoke: they make the *worker itself* misbehave at a
    chosen step (SIGKILL itself, stall silently, poison its state with
    NaN, or raise). Kill/stall/crash chaos applies only on attempt
    ``chaos_attempt`` so the retry can succeed; NaN chaos applies on
    every attempt that still runs on the job's original backend, so the
    circuit breaker has something to trip on.
    """

    name: str
    workload: str
    backend: str = "reference"
    steps: int = 400
    scale: float = 0.05
    seed: int = 1
    dt: float = 1e-4
    solver: Optional[str] = None
    #: Per-job wall-clock deadline; ``None`` uses the supervisor default.
    deadline_seconds: Optional[float] = None
    #: Checkpoint interval in steps; ``None`` uses the supervisor
    #: default, ``0`` disables checkpointing for this job.
    checkpoint_every: Optional[int] = None
    # -- chaos (tests / CI smoke only) ----------------------------------
    chaos_kill_at_step: Optional[int] = None
    chaos_stall_at_step: Optional[int] = None
    chaos_crash_at_step: Optional[int] = None
    chaos_nan_at_step: Optional[int] = None
    chaos_attempt: int = 0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SupervisionError(f"job name must be a non-empty string, got {self.name!r}")
        if self.backend not in JOB_BACKENDS:
            raise SupervisionError(
                f"job {self.name!r}: unknown backend {self.backend!r} "
                f"(choose from {', '.join(JOB_BACKENDS)})"
            )
        if self.steps < 1:
            raise SupervisionError(
                f"job {self.name!r}: steps must be >= 1, got {self.steps}"
            )
        if self.scale <= 0:
            raise SupervisionError(
                f"job {self.name!r}: scale must be positive, got {self.scale}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise SupervisionError(
                f"job {self.name!r}: deadline must be positive, "
                f"got {self.deadline_seconds}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 0:
            raise SupervisionError(
                f"job {self.name!r}: checkpoint_every must be >= 0, "
                f"got {self.checkpoint_every}"
            )

    def to_payload(self) -> Dict[str, object]:
        """The spec as a plain dict (the pipe wire format)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobSpec":
        """Rebuild a spec the supervisor sent over the pipe."""
        try:
            return cls(**payload)
        except TypeError as error:
            raise SupervisionError(
                f"malformed job payload: {error}"
            ) from error


@dataclass
class AttemptReport:
    """What one worker process did with one job attempt."""

    attempt: int
    #: ``"completed"`` or one of :data:`FAILURE_KINDS`.
    outcome: str
    #: Backend this attempt actually ran on (may be the circuit
    #: breaker's degradation target rather than the spec's backend).
    backend: str = ""
    error: str = ""
    #: Step the attempt resumed from (0 = fresh start).
    resumed_from_step: int = 0
    #: Last step the supervisor saw progress for (heartbeat or done).
    steps_completed: int = 0
    wall_seconds: float = 0.0
    #: Largest gap observed between progress signals.
    max_heartbeat_lag: float = 0.0
    #: The sweep's correlation ID (shared by every log/flight event).
    run_id: str = ""
    #: The worker's ``repro-flight/1`` crash flight-recorder dump —
    #: shipped in the ``failed`` pipe message when the worker could
    #: still speak, recovered from its sidecar file when it could not
    #: (SIGKILL, hard hang). ``None`` on success.
    flight_recorder: Optional[dict] = None
    #: Tail of the worker's captured stdout/stderr — the post-mortem
    #: trail (e.g. the traceback) of a worker that died before sending
    #: a ``failed`` message. Empty on success.
    output_tail: str = ""


@dataclass
class JobReport:
    """The supervised outcome of one job across all its attempts."""

    name: str
    workload: str
    backend: str
    outcome: str  #: ``"completed"`` or ``"failed"``
    failure_kind: Optional[str] = None
    attempts: List[AttemptReport] = field(default_factory=list)
    #: True when the circuit breaker re-routed this job onto the
    #: solver backend (job-level ``FallbackRuntime`` semantics).
    degraded: bool = False
    steps: int = 0
    total_spikes: int = 0
    #: SHA-256 over the final spike trains (bit-identity pinning).
    spike_digest: Optional[str] = None
    #: The worker's ``SimulationResult.to_stats_dict()`` payload.
    stats: Optional[dict] = None
    #: Per-unit activity (``WorkloadProfile`` fields) measured by the
    #: worker — feeds the supervised figure-sweep path.
    profile: Optional[dict] = None
    wall_seconds: float = 0.0

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(0, len(self.attempts) - 1)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["retries"] = self.retries
        return payload


@dataclass
class SweepReport:
    """Everything one supervised sweep produced."""

    jobs: List[JobReport]
    wall_seconds: float = 0.0
    #: JSON snapshot of the supervisor's metrics registry.
    metrics: Optional[dict] = None
    #: Worker-lifetime spans in Trace Event JSON (Perfetto-loadable).
    trace_events: List[dict] = field(default_factory=list)
    #: The sweep's correlation ID (every log/flight record carries it).
    run_id: str = ""
    #: One ordered stream (``repro-log/1`` records) merging the
    #: supervisor's and every worker's structured logs — worker records
    #: travel over the pipe wire protocol instead of vanishing into
    #: subprocess stderr.
    log_records: List[dict] = field(default_factory=list)

    @property
    def completed(self) -> List[JobReport]:
        return [job for job in self.jobs if job.completed]

    @property
    def failed(self) -> List[JobReport]:
        return [job for job in self.jobs if not job.completed]

    def all_completed(self) -> bool:
        return not self.failed

    def job(self, name: str) -> JobReport:
        for report in self.jobs:
            if report.name == name:
                return report
        raise SupervisionError(f"no job named {name!r} in this sweep")

    def to_dict(self) -> dict:
        return {
            "schema": "repro-sweep/1",
            "run_id": self.run_id,
            "jobs": [job.to_dict() for job in self.jobs],
            "completed": len(self.completed),
            "failed": len(self.failed),
            "wall_seconds": self.wall_seconds,
            "metrics": self.metrics,
            "n_log_records": len(self.log_records),
        }

    def log_stream(self) -> dict:
        """The merged log stream as a ``repro-log/1`` document
        (what ``repro sweep --log-json`` writes via ``repro.io``)."""
        from repro.observability.log import log_stream_document

        return log_stream_document(self.log_records, run_id=self.run_id)

    def trace_json(self) -> dict:
        """The sweep's merged trace as a Trace Event JSON document."""
        return {
            "traceEvents": list(self.trace_events),
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": "repro-sweep-trace/1",
                "run_id": self.run_id,
            },
        }


def spike_digest(recorder) -> str:
    """SHA-256 over a recorder's full spike trains.

    Two runs whose digests match produced bit-identical spikes — the
    cheap cross-process stand-in for comparing the full trains, used to
    pin that a killed-and-resumed job equals an uninterrupted one, and
    that ``simulate_sharded`` equals the single-process path. The hashing
    itself lives on :meth:`SpikeRecorder.digest`; anything exposing the
    same ``populations()`` / ``result()`` surface hashes identically.
    """
    digest_method = getattr(recorder, "digest", None)
    if digest_method is not None:
        return digest_method()
    digest = hashlib.sha256()
    for population in recorder.populations():
        record = recorder.result(population)
        digest.update(population.encode("utf-8"))
        digest.update(record.steps.tobytes())
        digest.update(record.neurons.tobytes())
    return digest.hexdigest()
