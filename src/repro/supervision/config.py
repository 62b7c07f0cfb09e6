"""SupervisorConfig: the watchdog's timing knobs as one value object.

The supervisor's poll cadence (how often the watchdog checks the
worker pipe), the workers' heartbeat emission interval, the stall
timeout, and the default per-job deadline travel as one frozen,
validated config, settable from the CLI via ``repro sweep
--poll-interval/--heartbeat-interval/--heartbeat-timeout/--deadline``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SupervisionError
from repro.supervision.worker import HEARTBEAT_INTERVAL

__all__ = ["SupervisorConfig"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Watchdog timings for supervised workers."""

    #: How long the watchdog blocks on the worker pipe per check
    #: (previously hard-coded to 50 ms).
    poll_interval: float = 0.05
    #: Wall-clock seconds between worker progress heartbeats.
    heartbeat_interval: float = HEARTBEAT_INTERVAL
    #: Kill a worker whose progress signals stall this long.
    heartbeat_timeout: float = 15.0
    #: Default per-job wall-clock deadline (a spec may override).
    deadline_seconds: float = 120.0

    def __post_init__(self) -> None:
        for name in (
            "poll_interval",
            "heartbeat_interval",
            "heartbeat_timeout",
            "deadline_seconds",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise SupervisionError(
                    f"{name} must be positive, got {value}"
                )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise SupervisionError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}) or every "
                "worker would be killed between beats"
            )
