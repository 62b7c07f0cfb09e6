"""Graceful SIGINT/SIGTERM handling for foreground runs.

Ctrl-C on a long ``repro run`` used to cost the whole run and print a
raw traceback. The pieces here turn an interrupt into a *clean stop at
the next step boundary*:

* :func:`graceful_signals` installs SIGINT/SIGTERM handlers that only
  set a flag (a second signal of the same kind force-exits the
  old-fashioned way, so a wedged run can still be killed);
* :class:`InterruptHook` checks the flag at every ``on_step_start`` —
  the one point where queues, runtimes, and RNG state are mutually
  consistent — writes a final :class:`~repro.reliability.checkpoint.
  Checkpoint` (atomically), captures partial run statistics, and
  raises :class:`~repro.errors.RunInterrupted`;
* the CLI catches :class:`RunInterrupted`, writes the partial
  ``--stats-json`` document (``"partial": true``), and exits with the
  documented code: **130** for SIGINT, **143** for SIGTERM
  (the conventional ``128 + signum``).

The hook subclasses :class:`~repro.engine.hooks.PhaseTimer` so the
partial statistics carry real per-phase wall-clock/op totals up to the
interrupted step, not just a step count.
"""

from __future__ import annotations

import contextlib
import signal
from typing import Dict, Iterator, Optional

from repro.engine.hooks import PhaseTimer
from repro.errors import RunInterrupted
from repro.network.simulator import RUN_STATS_SCHEMA

__all__ = ["EXIT_CODES", "InterruptHook", "graceful_signals"]

#: Documented process exit codes for a gracefully interrupted run.
EXIT_CODES: Dict[str, int] = {"SIGINT": 130, "SIGTERM": 143}


class InterruptHook(PhaseTimer):
    """Stops a run cleanly once a signal handler calls :meth:`request`.

    ``checkpoint_path`` is where the final checkpoint lands (``None``
    skips it); ``include_spikes`` carries the recorded spike train into
    the checkpoint so a later ``--resume-from`` reports the full run.
    """

    def __init__(
        self,
        simulator,
        checkpoint_path: Optional[str] = None,
        include_spikes: bool = True,
    ) -> None:
        super().__init__()
        self.simulator = simulator
        self.checkpoint_path = checkpoint_path
        self.include_spikes = include_spikes
        #: Signal name once an interrupt was requested (handler-set).
        self.requested: Optional[str] = None
        #: Partial-run statistics captured at the stop point.
        self.partial_stats: Optional[dict] = None
        #: Where the final checkpoint was written (None = not written).
        self.checkpoint_written: Optional[str] = None

    def request(self, signal_name: str) -> None:
        """Ask the run to stop at the next step boundary (async-safe)."""
        self.requested = signal_name

    def on_step_start(self, step: int) -> None:
        if self.requested is None:
            return
        signal_name = self.requested
        if self.checkpoint_path is not None:
            from repro.reliability.checkpoint import Checkpoint

            spikes = (
                self.simulator.live_spikes if self.include_spikes else None
            )
            Checkpoint.capture(self.simulator, spikes=spikes).save(
                self.checkpoint_path
            )
            self.checkpoint_written = self.checkpoint_path
        self.partial_stats = self._partial_stats(signal_name, step)
        raise RunInterrupted(
            f"run interrupted by {signal_name} at step {step} "
            f"(checkpoint: {self.checkpoint_written or 'not written'})",
            signal_name=signal_name,
            step=step,
        )

    def _partial_stats(self, signal_name: str, step: int) -> dict:
        """A :data:`RUN_STATS_SCHEMA` document for the partial run."""
        simulator = self.simulator
        recorder = simulator.live_spikes
        total = sum(stats.seconds for stats in self.phases.values())
        return {
            "schema": RUN_STATS_SCHEMA,
            "partial": True,
            "network": simulator.network.name,
            "backend": simulator.backend.name,
            "n_steps": step,
            "dt": simulator.dt,
            "total_seconds": total,
            "phases": {
                name: {
                    "seconds": stats.seconds,
                    "operations": stats.operations,
                }
                for name, stats in self.phases.items()
            },
            "counters": {
                "total_spikes": (
                    recorder.total_spikes() if recorder is not None else 0
                ),
            },
            "interrupted": {
                "signal": signal_name,
                "step": step,
                "exit_code": EXIT_CODES.get(signal_name, 130),
                "checkpoint": self.checkpoint_written,
            },
        }


@contextlib.contextmanager
def graceful_signals(hook: InterruptHook) -> Iterator[InterruptHook]:
    """Route SIGINT/SIGTERM into ``hook.request`` for the body's duration.

    The first signal requests a graceful stop; a second signal of
    either kind restores default behaviour and re-raises it, so an
    unresponsive run still dies. Previous handlers are restored on
    exit.
    """
    seen = {"count": 0}

    def handler(signum, frame):
        name = signal.Signals(signum).name
        seen["count"] += 1
        if seen["count"] > 1:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            raise KeyboardInterrupt(f"forced exit on repeated {name}")
        hook.request(name)

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, handler),
        signal.SIGTERM: signal.signal(signal.SIGTERM, handler),
    }
    try:
        yield hook
    finally:
        for signum, prior in previous.items():
            signal.signal(signum, prior)
