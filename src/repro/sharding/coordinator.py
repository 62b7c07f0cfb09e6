"""ShardCoordinator: one network across crash-recoverable workers.

The coordinator is the sharding layer's supervisor: it spawns one
:func:`~repro.sharding.worker.shard_worker_entry` process per shard,
drives the min-delay window barrier over their pipes, and owns the
whole recovery ladder:

* **Barrier** — an epoch completes when every shard's ``window``
  message has arrived; the coordinator merges the fired lists (shard
  order, so concatenation reproduces the single-process ascending
  order), caches the merge, and broadcasts one ``exchange`` to every
  shard. The wait between the first and last arrival is observed into
  the ``shard_barrier_wait_seconds`` histogram.

* **Composite checkpoints** — every ``checkpoint_every`` epochs each
  shard ships its snapshot; once all have arrived they form a globally
  consistent cut (:class:`~repro.sharding.checkpoint.
  CompositeCheckpoint`), optionally persisted atomically, and the
  exchange cache up to that epoch is pruned.

* **Kill-and-restart** — a dead or stalled shard (no traffic for
  ``barrier_timeout``; detected per-shard, so one lagging shard never
  stalls the whole run silently) is SIGKILLed and respawned from the
  last composite cut. The restarted shard deterministically re-runs
  the windows since that cut; the coordinator verifies each re-sent
  window digest against the cached original — a mismatch means the
  checkpoint or the backend lied, and the run degrades rather than
  split reality. Surviving shards never rewind: the coordinator
  re-serves the cached exchanges, which is the outbox rewind.

* **Graceful degradation** — when a shard exhausts its
  :class:`~repro.supervision.backoff.RetryPolicy` budget (or a
  determinism violation is detected), the coordinator kills every
  worker and re-runs the whole job single-process — bit-identical by
  construction — recording a structured :class:`~repro.reliability.
  diagnostics.DegradedEvent` in the run diagnostics.

Metrics (``shard_barrier_wait_seconds``, ``shard_restarts_total``,
``shard_epoch``), the :class:`~repro.observability.server.StatusBoard`
rows, and :class:`~repro.observability.server.EventBus` events ride
the same observability plane as the supervisor, so ``repro run
--shards N --serve`` streams barrier progress live.
"""

from __future__ import annotations

import os
import signal as _signal
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional

from repro.errors import ShardingError, SupervisionError
from repro.observability.log import new_run_id
from repro.provenance import (
    ProcessRing,
    SpanRecorder,
    TraceContext,
    barrier_recv_id,
    barrier_send_id,
    estimate_offset,
    merge_rings,
)
from repro.reliability.diagnostics import DegradedEvent, RunDiagnostics
from repro.sharding.checkpoint import CompositeCheckpoint
from repro.sharding.plan import ShardPlan
from repro.sharding.runner import Window, merge_spikes, merge_windows
from repro.sharding.worker import shard_worker_entry
from repro.supervision.backoff import RetryPolicy
from repro.supervision.config import SupervisorConfig
from repro.supervision.job import JobSpec, spike_digest

__all__ = ["ShardChaos", "ShardCoordinator", "ShardedRunResult"]

#: Barrier-wait histogram buckets (same shape as the supervisor's lag
#: buckets: 10 ms .. 30 s).
_BARRIER_BUCKETS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


@dataclass(frozen=True)
class ShardChaos:
    """Fault injection for the sharded chaos tests and the CI smoke.

    ``kill_epoch`` makes the target shard SIGKILL itself right after
    computing that epoch's window (before sending it); ``stall_epoch``
    makes it hang silently at the same point. Both apply only on
    ``attempt``, so the restarted worker succeeds.
    """

    shard: int = 0
    kill_epoch: Optional[int] = None
    stall_epoch: Optional[int] = None
    attempt: int = 0

    def payload(self) -> dict:
        return {
            "kill_epoch": self.kill_epoch,
            "stall_epoch": self.stall_epoch,
            "attempt": self.attempt,
        }


@dataclass
class ShardedRunResult:
    """What one coordinated sharded run produced."""

    spikes: object  #: merged :class:`SpikeRecorder`
    n_steps: int
    dt: float
    n_shards: int
    window: int
    epochs: int
    #: Restarts per shard (index = shard id).
    restarts: List[int] = field(default_factory=list)
    #: True when the run fell back to single-process execution.
    degraded: bool = False
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)
    spike_digest: str = ""
    wall_seconds: float = 0.0
    #: Barrier epochs whose exchange was re-served to a restarted shard.
    replayed_epochs: int = 0
    #: Provenance correlation id shared by every worker incarnation.
    run_id: str = ""
    #: Span rings from the coordinator and every worker incarnation.
    rings: List[ProcessRing] = field(default_factory=list)

    def total_spikes(self) -> int:
        return self.spikes.total_spikes()

    def trace_document(self, network: Optional[str] = None) -> dict:
        """The merged Chrome/Perfetto trace of this run (see merge)."""
        return merge_rings(self.rings, run_id=self.run_id, network=network)

    def trace_json(self, network: Optional[str] = None) -> str:
        import json

        return json.dumps(self.trace_document(network), indent=2)

    def to_stats_dict(self) -> dict:
        return {
            "schema": "repro-shard-run/1",
            "run_id": self.run_id,
            "n_steps": self.n_steps,
            "dt": self.dt,
            "n_shards": self.n_shards,
            "window": self.window,
            "epochs": self.epochs,
            "restarts": list(self.restarts),
            "total_restarts": sum(self.restarts),
            "replayed_epochs": self.replayed_epochs,
            "degraded": self.degraded,
            "total_spikes": self.total_spikes(),
            "spike_digest": self.spike_digest,
            "wall_seconds": self.wall_seconds,
            "diagnostics": self.diagnostics.to_dict(),
        }


class _ShardHandle:
    """One live shard worker: process, pipe, and liveness bookkeeping."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.process = None
        self.conn = None
        self.attempt = -1
        self.last_signal = time.monotonic()
        self.capture_path = ""
        # Provenance bookkeeping, reset on every (re)spawn: the span
        # sidecar path, (worker_ts, parent_ts) handshake samples for
        # clock-offset estimation, and whether this incarnation's ring
        # has already been collected (pipe beats sidecar).
        self.spans_path = ""
        self.offset_samples: List[tuple] = []
        self.ring_collected = False

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=10.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.kill()
                self.process.join(timeout=10.0)
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class ShardCoordinator:
    """Drives one sharded simulation to completion, whatever dies.

    Parameters
    ----------
    spec:
        The job to run (workload, backend, steps, scale, seed, dt).
        ``spec.shards`` names the partition count.
    config:
        :class:`SupervisorConfig` watchdog timings (poll cadence and
        the workers' heartbeat interval are used here).
    retry:
        Per-shard restart budget; defaults to 2 restarts, 0.5 s base.
    barrier_timeout:
        Seconds without *any* traffic from a shard before it is
        declared stalled and killed. This is the sharded analogue of
        the supervisor's heartbeat timeout.
    checkpoint_every:
        Composite-checkpoint interval in barrier *epochs* (>= 1).
    checkpoint_path:
        Optional file path; when set, every composite checkpoint is
        atomically persisted there.
    chaos:
        Optional :class:`ShardChaos` fault injection.
    metrics / status_board / event_bus:
        The observability plane (all optional; a private
        ``MetricsRegistry`` is created when omitted).
    health:
        Optional :class:`~repro.health.alerts.HealthMonitor`. The
        coordinator feeds it every shard's barrier lateness and
        heartbeat resource sample, and ticks its alert evaluation from
        the barrier loop.
    """

    def __init__(
        self,
        spec: JobSpec,
        *,
        config: Optional[SupervisorConfig] = None,
        retry: Optional[RetryPolicy] = None,
        barrier_timeout: float = 30.0,
        checkpoint_every: int = 1,
        checkpoint_path: Optional[str] = None,
        chaos: Optional[ShardChaos] = None,
        metrics=None,
        status_board=None,
        event_bus=None,
        run_id: Optional[str] = None,
        health=None,
    ) -> None:
        if spec.shards < 2:
            raise SupervisionError(
                f"ShardCoordinator needs spec.shards >= 2, got {spec.shards}"
            )
        if barrier_timeout <= 0:
            raise SupervisionError(
                f"barrier_timeout must be positive, got {barrier_timeout}"
            )
        if checkpoint_every < 1:
            raise SupervisionError(
                f"checkpoint_every must be >= 1 epoch, got {checkpoint_every}"
            )
        if chaos is not None and not 0 <= chaos.shard < spec.shards:
            raise SupervisionError(
                f"chaos shard {chaos.shard} out of range 0..{spec.shards - 1}"
            )
        if metrics is None:
            from repro.telemetry import MetricsRegistry

            metrics = MetricsRegistry()
        self.spec = spec
        self.config = config if config is not None else SupervisorConfig()
        self.retry = retry if retry is not None else RetryPolicy()
        self.barrier_timeout = barrier_timeout
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.chaos = chaos
        self.metrics = metrics
        self.status_board = status_board
        self.event_bus = event_bus
        self.health = health
        self._ctx = get_context("spawn")
        self._sleep = time.sleep
        self.diagnostics = RunDiagnostics()
        self.restarts = [0] * spec.shards
        self._replayed_epochs = 0
        self.run_id = run_id or new_run_id()
        # The coordinator's own span ring (offset 0 — it *is* the
        # reference clock) plus the rings harvested from every worker
        # incarnation. 4096 barrier spans cover hours of epochs.
        self._spans = SpanRecorder(
            TraceContext(run_id=self.run_id), max_spans=4096
        )
        self._rings: List[ProcessRing] = []

        network, plan = self._derive_plan()
        self._network = network
        self.plan = plan
        self.n_epochs = plan.epochs_for(spec.steps)

        # Barrier state. ``pending[epoch][shard]`` holds window
        # payloads not yet merged; ``cache[epoch]`` merged exchanges
        # retained since the last composite cut (the outbox a restarted
        # shard replays against); ``digests[epoch][shard]`` the window
        # digests used to verify a restarted shard's re-sent history.
        self._pending: Dict[int, Dict[int, dict]] = {}
        self._cache: Dict[int, Window] = {}
        self._digests: Dict[int, Dict[int, str]] = {}
        self._ckpt_parts: Dict[int, Dict[int, dict]] = {}
        self._shard_states: Dict[int, dict] = {}
        self._last_composite_epoch = -1
        self._epoch_released = -1  # newest epoch whose exchange was sent
        self._barrier_opened: Dict[int, float] = {}
        self._barrier_opened_wall: Dict[int, float] = {}
        self._done: Dict[int, dict] = {}
        self._handles: List[_ShardHandle] = []
        self._capture_dir = ""

    # -- plan derivation ---------------------------------------------------

    def _derive_plan(self):
        from repro.assembly import assemble_job

        network = assemble_job(self.spec).network
        return network, ShardPlan(network, self.spec.shards)

    # -- observability helpers ---------------------------------------------

    def _publish_event(self, event_type: str, payload: dict) -> None:
        if self.event_bus is not None:
            self.event_bus.publish(event_type, dict(payload))

    def _shard_row(self, shard: int, **fields) -> None:
        if self.status_board is not None:
            self.status_board.merge("shards", **{f"shard{shard}": fields})

    def _observe_barrier_wait(self, seconds: float) -> None:
        self.metrics.histogram(
            "shard_barrier_wait_seconds",
            "Wait between the first and last shard reaching a barrier.",
            buckets=_BARRIER_BUCKETS,
        ).observe(seconds)

    def _inc_restarts(self, shard: int, reason: str) -> None:
        self.restarts[shard] += 1
        self.metrics.counter(
            "shard_restarts_total",
            "Shard workers killed and restarted by the coordinator.",
            {"shard": str(shard), "reason": reason},
        ).inc()

    def _set_epoch_gauge(self, epoch: int) -> None:
        self.metrics.gauge(
            "shard_epoch",
            "Newest barrier epoch whose exchange has been released.",
        ).set(epoch)

    def _shard_resources(self, shard: int, body: dict) -> dict:
        """Resource fields riding a heartbeat → gauges, health, status.

        Gauges (not counters): a restarted shard's CPU clock starts at
        zero again. Heartbeats without the fields contribute nothing.
        """
        out = {}
        rss = body.get("rss_bytes")
        cpu = body.get("cpu_seconds")
        if rss is not None:
            out["rss_bytes"] = float(rss)
            self.metrics.gauge(
                "shard_resident_memory_bytes",
                "Resident set size reported by the shard's latest "
                "heartbeat.",
                {"shard": str(shard)},
            ).set(float(rss))
        if cpu is not None:
            out["cpu_seconds"] = float(cpu)
            self.metrics.gauge(
                "shard_cpu_seconds",
                "CPU time consumed by the shard's current incarnation.",
                {"shard": str(shard)},
            ).set(float(cpu))
        if self.health is not None and out:
            self.health.resource_sample(shard, out)
        return out

    # -- provenance ---------------------------------------------------------

    def _collect_ring(self, handle: _ShardHandle,
                      dump: Optional[dict]) -> None:
        """Adopt one incarnation's span ring (pipe payload or sidecar)."""
        if handle.ring_collected or not dump:
            return
        ring = ProcessRing.from_dump(
            dump,
            label=f"shard{handle.shard}#a{handle.attempt}",
            offset=estimate_offset(handle.offset_samples),
        )
        self._rings.append(ring)
        handle.ring_collected = True

    def _harvest_sidecar(self, handle: _ShardHandle) -> None:
        """Sidecar exit path: a SIGKILL'd worker never sent its ring."""
        if handle.ring_collected or not handle.spans_path:
            return
        self._collect_ring(handle, SpanRecorder.load_dump(handle.spans_path))

    def _all_rings(self) -> List[ProcessRing]:
        """Coordinator ring first, then every worker incarnation."""
        own = ProcessRing(
            label="coordinator",
            pid=os.getpid(),
            offset=0.0,
            spans=list(self._spans.spans),
            dropped=self._spans.dropped_spans,
        )
        return [own] + list(self._rings)

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, handle: _ShardHandle, capture_dir: str) -> None:
        handle.attempt += 1
        shard = handle.shard
        resume = self._shard_states.get(shard)
        start_epoch = (
            self._last_composite_epoch + 1 if resume is not None else 0
        )
        handle.capture_path = os.path.join(
            capture_dir, f"shard{shard}.a{handle.attempt}.out"
        )
        handle.spans_path = os.path.join(
            capture_dir, f"shard{shard}.a{handle.attempt}.spans.json"
        )
        handle.offset_samples = []
        handle.ring_collected = False
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_entry,
            args=(child_conn, handle.capture_path),
            daemon=True,
        )
        process.start()
        child_conn.close()
        payload = {
            "spec": self.spec.to_payload(),
            "plan": self.plan.to_payload(),
            "shard": shard,
            "attempt": handle.attempt,
            "resume": resume,
            "start_epoch": start_epoch,
            "heartbeat_interval": self.config.heartbeat_interval,
            "checkpoint_every": self.checkpoint_every,
            "trace": TraceContext(
                run_id=self.run_id, shard_id=shard,
                attempt=handle.attempt,
                parent_span=f"barrier:{self.run_id}",
            ).to_payload(),
            "spans_path": handle.spans_path,
            "chaos": (
                self.chaos.payload()
                if self.chaos is not None and self.chaos.shard == shard
                else None
            ),
        }
        parent_conn.send(payload)
        handle.process = process
        handle.conn = parent_conn
        handle.last_signal = time.monotonic()
        self._shard_row(
            shard, state="starting", attempt=handle.attempt,
            start_epoch=start_epoch, restarts=self.restarts[shard],
        )
        self._publish_event(
            "shard-start",
            {"shard": shard, "attempt": handle.attempt,
             "start_epoch": start_epoch},
        )

    def _restart(self, handle: _ShardHandle, reason: str) -> None:
        """Kill a shard and bring it back from the last composite cut."""
        shard = handle.shard
        if handle.attempt >= self.retry.max_retries:
            raise _DegradeRun(
                reason="retries-exhausted", shard=shard,
                attempts=handle.attempt + 1,
                detail=f"shard {shard} failed again ({reason}) after "
                       f"{handle.attempt + 1} attempt(s)",
            )
        handle.kill()
        self._harvest_sidecar(handle)
        self._inc_restarts(shard, reason)
        # Windows the dead shard contributed to un-released epochs are
        # void — the restarted worker re-produces them.
        for epoch, parts in self._pending.items():
            if epoch > self._epoch_released:
                parts.pop(shard, None)
        for epoch, parts in self._ckpt_parts.items():
            parts.pop(shard, None)
        self._shard_row(
            shard, state="restarting", reason=reason,
            restarts=self.restarts[shard],
        )
        self._publish_event(
            "shard-restart", {"shard": shard, "reason": reason,
                              "restarts": self.restarts[shard]},
        )
        self._sleep(self.retry.delay(handle.attempt, None))
        self._spawn(handle, self._capture_dir)

    # -- the run -----------------------------------------------------------

    def run(self) -> ShardedRunResult:
        """Drive every shard to ``spec.steps``; degrade rather than raise
        for shard failures (configuration errors still raise)."""
        start = time.monotonic()
        handles = [_ShardHandle(s) for s in range(self.spec.shards)]
        self._handles = handles
        if self.status_board is not None:
            self.status_board.update(
                state="running",
                sharded=f"{self.spec.shards} shard(s), "
                        f"window {self.plan.window}",
            )
        self._publish_event(
            "shard-run-start",
            {"n_shards": self.spec.shards, "window": self.plan.window,
             "epochs": self.n_epochs},
        )
        try:
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
                self._capture_dir = tmp
                for handle in handles:
                    self._spawn(handle, tmp)
                try:
                    self._barrier_loop(handles)
                finally:
                    for handle in handles:
                        handle.kill()
                        # Rings not shipped over the pipe (degradation,
                        # teardown) are recovered from sidecars before
                        # the capture dir vanishes with this block.
                        self._harvest_sidecar(handle)
        except _DegradeRun as degrade:
            return self._degrade(degrade, start)
        spikes = merge_spikes(
            [self._done[s]["spikes"] for s in range(self.spec.shards)]
        )
        result = ShardedRunResult(
            spikes=spikes,
            n_steps=self.spec.steps,
            dt=self.spec.dt,
            n_shards=self.spec.shards,
            window=self.plan.window,
            epochs=self.n_epochs,
            restarts=list(self.restarts),
            degraded=False,
            diagnostics=self.diagnostics,
            spike_digest=spike_digest(spikes),
            wall_seconds=time.monotonic() - start,
            replayed_epochs=self._replayed_epochs,
            run_id=self.run_id,
            rings=self._all_rings(),
        )
        if self.status_board is not None:
            self.status_board.update(state="finished")
        self._publish_event(
            "shard-run-end",
            {"degraded": False, "restarts": sum(self.restarts),
             "total_spikes": result.total_spikes()},
        )
        return result

    def _barrier_loop(self, handles: List[_ShardHandle]) -> None:
        poll = self.config.poll_interval
        while len(self._done) < self.spec.shards:
            conns = [h.conn for h in handles if h.conn is not None
                     and h.shard not in self._done]
            ready = _conn_wait(conns, timeout=poll) if conns else []
            by_conn = {h.conn: h for h in handles}
            for conn in ready:
                handle = by_conn[conn]
                try:
                    kind, body = conn.recv()
                except (EOFError, OSError):
                    # Pipe died — treat like a silent crash; the
                    # liveness sweep below will classify and restart.
                    continue
                handle.last_signal = time.monotonic()
                self._handle_message(handle, kind, body)
            if self.health is not None:
                self.health.tick()
            now = time.monotonic()
            for handle in handles:
                if handle.shard in self._done:
                    continue
                if not handle.alive():
                    exitcode = (
                        handle.process.exitcode
                        if handle.process is not None else None
                    )
                    self._drain(handle)
                    if handle.shard in self._done:
                        continue
                    reason = (
                        "oom-like"
                        if exitcode == -int(_signal.SIGKILL)
                        else "crash"
                    )
                    self._restart(handle, reason)
                elif (
                    now - handle.last_signal > self.barrier_timeout
                    and not self._waiting_at_barrier(handle.shard)
                ):
                    self._restart(handle, "stall")

    def _waiting_at_barrier(self, shard: int) -> bool:
        """Has this shard already delivered its window and gone quiet?

        A shard blocked in ``recv()`` waiting for an exchange emits no
        heartbeats — that silence is the barrier working, not a stall.
        Stall detection must target only the shards whose window is
        *missing*, otherwise restarting one laggard would cascade into
        killing every waiter.
        """
        return any(
            shard in parts
            for epoch, parts in self._pending.items()
            if epoch > self._epoch_released
        )

    def _drain(self, handle: _ShardHandle) -> None:
        """Pick up final messages that raced a worker's exit."""
        if handle.conn is None:
            return
        while True:
            try:
                if not handle.conn.poll(0):
                    return
                kind, body = handle.conn.recv()
            except (EOFError, OSError):
                return
            handle.last_signal = time.monotonic()
            self._handle_message(handle, kind, body)

    # -- message handling --------------------------------------------------

    def _handle_message(self, handle: _ShardHandle, kind: str,
                        body: dict) -> None:
        shard = handle.shard
        if isinstance(body, dict) and body.get("ts") is not None:
            # Every stamped inbound message is a clock-offset sample
            # (worker wall-clock send time vs our wall-clock receive).
            handle.offset_samples.append((float(body["ts"]), time.time()))
        if kind == "heartbeat":
            resources = self._shard_resources(shard, body)
            self._shard_row(
                shard, state="running", step=body.get("step"),
                restarts=self.restarts[shard], **resources,
            )
            return
        if kind == "started":
            self._shard_row(
                shard, state="running", step=body.get("step"),
                restarts=self.restarts[shard],
            )
            return
        if kind == "window":
            self._on_window(handle, body)
            return
        if kind == "checkpoint":
            self._on_checkpoint(shard, body)
            return
        if kind == "done":
            self._done[shard] = body
            self._collect_ring(handle, body.get("spans"))
            self._shard_row(
                shard, state="done", step=body.get("steps"),
                restarts=self.restarts[shard],
            )
            self._publish_event(
                "shard-done",
                {"shard": shard, "steps": body.get("steps"),
                 "total_spikes": body.get("total_spikes")},
            )
            return
        if kind == "failed":
            raise_reason = body.get("kind", "crash")
            self._collect_ring(handle, body.get("spans"))
            self._shard_row(shard, state="failed", error=body.get("error"))
            self._restart(handle, raise_reason)
            return
        # Unknown message kinds indicate a wire-protocol break.
        raise ShardingError(
            f"shard {shard} sent unknown message kind {kind!r}"
        )

    def _on_window(self, handle: _ShardHandle, body: dict) -> None:
        shard = handle.shard
        epoch = int(body["epoch"])
        if epoch <= self._epoch_released:
            # A restarted shard replaying history: verify it re-produced
            # byte-identical windows, then re-serve the cached exchange.
            cached_digest = self._digests.get(epoch, {}).get(shard)
            if cached_digest is None:
                raise _DegradeRun(
                    reason="replay-cache-miss", shard=shard,
                    attempts=handle.attempt + 1,
                    detail=f"shard {shard} replayed epoch {epoch} but its "
                           "exchange was already pruned",
                )
            if body["digest"] != cached_digest:
                raise _DegradeRun(
                    reason="determinism-violation", shard=shard,
                    attempts=handle.attempt + 1,
                    detail=f"shard {shard} re-produced a different window "
                           f"for epoch {epoch} after restart",
                )
            self._replayed_epochs += 1
            handle.conn.send(
                ("exchange", {"epoch": epoch, "fired": self._cache[epoch]})
            )
            return
        now = time.monotonic()
        parts = self._pending.setdefault(epoch, {})
        if not parts:
            self._barrier_opened[epoch] = now
            self._barrier_opened_wall[epoch] = time.time()
        parts[shard] = body
        if self.health is not None:
            # This shard's lateness behind the epoch's first arrival —
            # the per-shard signal the straggler detector compares
            # against its peers (the barrier histogram only keeps the
            # first-to-last aggregate).
            self.health.barrier_wait(
                shard, now - self._barrier_opened[epoch]
            )
        self._shard_row(
            shard, state="at-barrier", epoch=epoch, step=body.get("step"),
            restarts=self.restarts[shard],
        )
        if len(parts) == self.spec.shards:
            self._release_epoch(epoch)

    def _release_epoch(self, epoch: int) -> None:
        """All shards reached ``epoch``: merge, cache, broadcast."""
        parts = self._pending.pop(epoch)
        opened = self._barrier_opened.pop(epoch, time.monotonic())
        wait = time.monotonic() - opened
        self._observe_barrier_wait(wait)
        # The same observation, as an explicit span on the coordinator
        # track: first window arrival → release. Flow markers tie it to
        # every shard's send span (in) and receive span (out), which is
        # what makes a barrier stall visually attributable in Perfetto.
        n_shards = self.spec.shards
        self._spans.record(
            f"barrier e{epoch}",
            "barrier",
            self._barrier_opened_wall.pop(epoch, time.time() - wait),
            wait,
            args={"epoch": epoch, "wait_seconds": round(wait, 6)},
            flow_in=[barrier_send_id(epoch, s, n_shards)
                     for s in range(n_shards)],
            flow_out=[barrier_recv_id(epoch, s, n_shards)
                      for s in range(n_shards)],
        )
        # Releasing the barrier is a liveness event for every shard: a
        # waiter's last message may be arbitrarily old (it sent its
        # window, then blocked in recv), and without this reset the
        # stall sweep would race the post-release traffic and restart
        # healthy shards.
        now = time.monotonic()
        for handle in self._handles:
            handle.last_signal = now
        length = self.plan.window_length(epoch, self.spec.steps)
        windows = [parts[s]["fired"] for s in range(self.spec.shards)]
        merged = merge_windows(self.plan, windows, length)
        self._cache[epoch] = merged
        self._digests[epoch] = {
            s: parts[s]["digest"] for s in range(self.spec.shards)
        }
        self._epoch_released = epoch
        self._set_epoch_gauge(epoch)
        self._publish_event(
            "shard-barrier",
            {"epoch": epoch, "step": (epoch * self.plan.window) + length},
        )
        for handle in self._handles:
            if handle.shard in self._done or handle.conn is None:
                continue
            try:
                handle.conn.send(("exchange", {"epoch": epoch,
                                               "fired": merged}))
            except (BrokenPipeError, OSError):
                # Dead worker; the liveness sweep restarts it and the
                # replay path re-serves this exchange from the cache.
                pass

    def _on_checkpoint(self, shard: int, body: dict) -> None:
        epoch = int(body["epoch"])
        if epoch <= self._last_composite_epoch:
            # A replaying shard re-announced an already-composited cut.
            return
        parts = self._ckpt_parts.setdefault(epoch, {})
        parts[shard] = body["state"]
        if len(parts) < self.spec.shards:
            return
        # A globally consistent cut: all shards snapshotted epoch.
        states = self._ckpt_parts.pop(epoch)
        self._shard_states = states
        self._last_composite_epoch = epoch
        step = min(
            (epoch + 1) * self.plan.window, self.spec.steps
        )
        if self.checkpoint_path:
            composite = CompositeCheckpoint(
                signature=self._signature(), epoch=epoch, step=step,
                shards=states,
            )
            composite.save(self.checkpoint_path)
        # Exchanges at or before the cut can never be replayed again.
        for old in [e for e in self._cache if e <= epoch]:
            del self._cache[old]
            del self._digests[old]
        self._publish_event(
            "shard-checkpoint", {"epoch": epoch, "step": step}
        )

    def _signature(self) -> dict:
        signature = dict(self.plan.signature())
        signature.update(
            backend=self.spec.backend,
            dt=self.spec.dt,
            steps=self.spec.steps,
            workload=self.spec.workload,
            scale=self.spec.scale,
            seed=self.spec.seed,
        )
        return signature

    # -- degradation -------------------------------------------------------

    def _degrade(self, degrade: "_DegradeRun",
                 start: float) -> ShardedRunResult:
        """Last rung of the ladder: single-process rerun from step 0.

        Deterministic seeding makes the rerun bit-identical to what the
        sharded run would have produced, so callers still get a correct
        result — just without the parallelism.
        """
        from repro.assembly import assemble_job

        event = DegradedEvent(
            reason=degrade.reason,
            shard=degrade.shard,
            epoch=self._epoch_released + 1,
            attempts=degrade.attempts,
            detail=degrade.detail,
        )
        self.diagnostics.degraded.append(event)
        if self.health is not None:
            self.health.event_total(
                "degraded", len(self.diagnostics.degraded)
            )
            self.health.tick(force=True)
        self._publish_event(
            "shard-degraded",
            {"reason": degrade.reason, "shard": degrade.shard,
             "attempts": degrade.attempts},
        )
        if self.status_board is not None:
            self.status_board.update(state="degraded")
        result = assemble_job(self.spec).simulator().run(self.spec.steps)
        return ShardedRunResult(
            spikes=result.spikes,
            n_steps=self.spec.steps,
            dt=self.spec.dt,
            n_shards=self.spec.shards,
            window=self.plan.window,
            epochs=self.n_epochs,
            restarts=list(self.restarts),
            degraded=True,
            diagnostics=self.diagnostics,
            spike_digest=spike_digest(result.spikes),
            wall_seconds=time.monotonic() - start,
            replayed_epochs=self._replayed_epochs,
            run_id=self.run_id,
            rings=self._all_rings(),
        )


class _DegradeRun(Exception):
    """Internal control flow: abandon sharding, go single-process."""

    def __init__(self, reason: str, shard: int, attempts: int,
                 detail: str) -> None:
        super().__init__(detail)
        self.reason = reason
        self.shard = shard
        self.attempts = attempts
        self.detail = detail
