"""The shard worker: one shard's windowed loop in one spawned process.

:func:`shard_worker_entry` is the ``multiprocessing`` target for one
shard of a :class:`~repro.sharding.coordinator.ShardCoordinator` run.
Like the supervised job worker it is spawn-safe: the process receives
nothing but a pipe connection (plus the capture path for stdout/stderr
redirection), and the first message carries everything else. Wire
protocol, worker → coordinator:

``("started", {...})``
    Sent once the runner is built (and a resume snapshot restored),
    with the step the shard will continue from.
``("heartbeat", {"step": ..., "phase": ..., "rss_bytes": ...,
"cpu_seconds": ...})``
    Throttled progress signal, emitted from inside long windows via
    :meth:`ShardRunner.run_window`'s ``on_step`` seam — the
    coordinator's stall detector feeds on any inbound traffic, so a
    shard grinding through a big window is never mistaken for hung.
    Each heartbeat carries a :mod:`repro.health.resources` sample, so
    the coordinator exposes per-shard RSS/CPU and the straggler
    detector can attribute barrier skew.
``("window", {"epoch": ..., "fired": ..., "digest": ..., "step": ...})``
    The shard's window payload for one barrier epoch: per-population
    per-step global fired indices plus its SHA-256 digest (the
    coordinator uses the digest to verify a restarted shard re-produces
    byte-identical history).
``("checkpoint", {"epoch": ..., "state": ...})``
    The shard's full snapshot at a composite-checkpoint barrier.
``("done", {...})``
    Final step count and the shard's recorder snapshot for the merge.
``("failed", {...})``
    A structured failure the worker caught itself.

Coordinator → worker, after each ``window``:

``("exchange", {"epoch": ..., "fired": ...})``
    The merged fired lists of all shards for that epoch — replayed
    through the shard's sub-projections by
    :meth:`ShardRunner.apply_exchange`.
``("stop", {})``
    Orderly shutdown (degradation or coordinator teardown).

The ``chaos`` block of the init payload makes the worker sabotage
itself at a chosen barrier epoch — SIGKILL right after computing a
window (so the coordinator must restart it and replay history), or a
silent stall before sending (so the barrier timeout must fire). Both
apply only on the configured attempt so the restarted worker succeeds.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import Optional

from repro.assembly import assemble_job
from repro.supervision.job import JobSpec
from repro.supervision.worker import HEARTBEAT_INTERVAL, _redirect_output

__all__ = ["shard_worker_entry"]


class _ShardHeartbeat:
    """Throttled heartbeat sender (pipe-tolerant, wall-clock gated)."""

    def __init__(self, conn, interval: float = HEARTBEAT_INTERVAL) -> None:
        from repro.health.resources import ResourceSampler

        self.conn = conn
        self.interval = interval
        self._resources = ResourceSampler()
        self._last = time.monotonic()
        self._broken = False

    def beat(self, step: int, phase: str = "window") -> None:
        now = time.monotonic()
        if now - self._last < self.interval:
            return
        self._last = now
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
            self._broken = True


def shard_worker_entry(conn, capture_path: Optional[str] = None) -> None:
    """Process target: run one shard's barrier loop against ``conn``."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    if capture_path:
        _redirect_output(capture_path)
    payload = conn.recv()
    spec = JobSpec.from_payload(payload["spec"])
    shard = int(payload["shard"])
    attempt = int(payload.get("attempt", 0))
    resume = payload.get("resume")
    heartbeat_interval = float(
        payload.get("heartbeat_interval", HEARTBEAT_INTERVAL)
    )
    checkpoint_every = int(payload.get("checkpoint_every", 1))
    chaos = payload.get("chaos") or {}
    chaos_armed = attempt == int(chaos.get("attempt", 0))
    chaos_kill_epoch = chaos.get("kill_epoch")
    chaos_stall_epoch = chaos.get("stall_epoch")

    from repro.errors import ShardingError
    from repro.provenance import (
        SpanRecorder,
        TraceContext,
        barrier_recv_id,
        barrier_send_id,
    )
    from repro.sharding.plan import ShardPlan
    from repro.sharding.runner import ShardRunner, window_digest

    context = TraceContext.from_payload(payload.get("trace"))
    spans = SpanRecorder(
        context, sidecar_path=payload.get("spans_path")
    )

    step = -1
    try:
        # Every shard is built from the same stimulus seed; its plan
        # draws only the columns of the slices it owns.
        assembly = assemble_job(spec)
        plan = ShardPlan.from_payload(payload["plan"], assembly.network)
        runner = ShardRunner(
            assembly.network, plan, shard, assembly.backend(),
            dt=spec.dt, seed=assembly.stimulus_seed,
        )
        if resume is not None:
            runner.restore(resume)
        step = runner.step
        if step % plan.window:
            raise ShardingError(
                f"shard {shard} resumed at step {step}, which is not a "
                f"barrier boundary (window={plan.window})"
            )
        start_epoch = step // plan.window
        expected_start = int(payload.get("start_epoch", start_epoch))
        if start_epoch != expected_start:
            raise ShardingError(
                f"shard {shard} resumed at epoch {start_epoch}, "
                f"coordinator expected epoch {expected_start}"
            )
        conn.send(
            ("started", {
                "pid": os.getpid(),
                "shard": shard,
                "attempt": attempt,
                "step": step,
                "start_epoch": start_epoch,
                "ts": time.time(),
            })
        )
        heartbeat = _ShardHeartbeat(conn, heartbeat_interval)
        n_epochs = plan.epochs_for(spec.steps)
        n_shards = plan.n_shards
        for epoch in range(start_epoch, n_epochs):
            length = plan.window_length(epoch, spec.steps)
            window_start = time.time()
            window = runner.run_window(
                length, on_step=lambda s: heartbeat.beat(s)
            )
            step = runner.step
            spans.record(
                f"window e{epoch}",
                "window",
                window_start,
                time.time() - window_start,
                args={"step": step, "epoch": epoch},
                flow_out=[barrier_send_id(epoch, shard, n_shards)],
            )
            if chaos_armed and epoch == chaos_kill_epoch:
                # Die *after* the window is computed but *before* it is
                # sent: the worst moment — the coordinator has nothing
                # from this shard for this epoch and must restart it.
                # The span sidecar is the only exit path for this
                # incarnation's ring, so flush it first (the flight
                # recorder does the same before its chaos kill).
                spans.sync(force=True)
                os.kill(os.getpid(), signal.SIGKILL)
            if chaos_armed and epoch == chaos_stall_epoch:
                spans.sync(force=True)
                while True:  # pragma: no cover - killed by the watchdog
                    time.sleep(3600)
            conn.send(
                ("window", {
                    "epoch": epoch,
                    "shard": shard,
                    "fired": window,
                    "digest": window_digest(window),
                    "step": step,
                    "ts": time.time(),
                })
            )
            wait_start = time.time()
            kind, body = conn.recv()
            spans.record(
                f"barrier-wait e{epoch}",
                "barrier",
                wait_start,
                time.time() - wait_start,
                args={"epoch": epoch},
                flow_in=[barrier_recv_id(epoch, shard, n_shards)],
            )
            if kind == "stop":
                conn.send(("stopped", {"shard": shard, "step": step}))
                return
            if kind != "exchange":
                raise ShardingError(
                    f"shard {shard} expected an exchange for epoch "
                    f"{epoch}, got {kind!r}"
                )
            if body.get("epoch") != epoch:
                raise ShardingError(
                    f"shard {shard} got an exchange for epoch "
                    f"{body.get('epoch')!r} while waiting on {epoch}"
                )
            exchange_start = time.time()
            runner.apply_exchange(body["fired"], length)
            spans.record(
                f"exchange e{epoch}",
                "exchange",
                exchange_start,
                time.time() - exchange_start,
                args={"epoch": epoch},
            )
            spans.sync()
            if (
                checkpoint_every
                and (epoch + 1) % checkpoint_every == 0
                and epoch + 1 < n_epochs
            ):
                conn.send(
                    ("checkpoint", {
                        "epoch": epoch,
                        "shard": shard,
                        "state": runner.snapshot(),
                    })
                )
        conn.send(
            ("done", {
                "shard": shard,
                "steps": runner.step,
                "total_spikes": runner.recorder.total_spikes(),
                "spikes": runner.recorder.snapshot(),
                "spans": spans.dump(),
            })
        )
    except MemoryError as error:
        _send_failure(conn, "oom-like", error, shard, step, spans)
        sys.exit(1)
    except BaseException as error:  # noqa: BLE001 - classified, reported
        _send_failure(conn, "crash", error, shard, step, spans)
        sys.exit(1)
    finally:
        conn.close()


def _send_failure(conn, kind: str, error: BaseException, shard: int,
                  step: int, spans=None) -> None:
    """Traceback to stderr (the capture file) + structured message."""
    import traceback

    traceback.print_exc(file=sys.stderr)
    sys.stderr.flush()
    try:
        conn.send(
            ("failed", {
                "kind": kind,
                "shard": shard,
                "error": repr(error),
                "step": step,
                "traceback": traceback.format_exc(),
                "spans": spans.dump() if spans is not None else None,
            })
        )
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass
