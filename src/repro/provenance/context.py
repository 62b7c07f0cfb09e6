"""The trace context that rides every worker-init pipe payload.

Supervision workers are spawn-safe: they receive one init payload over
a pipe and nothing else. The trace context is one more
key in that payload (``"trace"``), so correlation survives process
boundaries without any shared state:

``run_id``
    The sweep correlation id (``run-<12 hex>``), identical across
    the supervisor and every worker incarnation of one sweep.
``job_id``
    The job (workload) name.
``attempt``
    Which incarnation this process is (0-based; bumped on restart).
``parent_span``
    The name of the parent's span that spawned this process — e.g.
    ``"job:Brunel#a1"`` — so a merged trace can attribute a worker
    track to the exact supervisor attempt span that owns it.

Workers echo the context back inside their span-ring dumps, which lets
the merge reject rings from a different run (stale sidecars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Correlation ids propagated over the worker-init wire payload."""

    run_id: str
    job_id: Optional[str] = None
    attempt: int = 0
    parent_span: Optional[str] = None

    def to_payload(self) -> dict:
        """Pipe/JSON-safe dict (the ``"trace"`` init-payload key)."""
        return {
            "run_id": self.run_id,
            "job_id": self.job_id,
            "attempt": self.attempt,
            "parent_span": self.parent_span,
        }

    @staticmethod
    def from_payload(payload: Optional[dict]) -> "TraceContext":
        """Rebuild from a wire payload; tolerates a missing block."""
        payload = payload or {}
        return TraceContext(
            run_id=str(payload.get("run_id", "")),
            job_id=payload.get("job_id"),
            attempt=int(payload.get("attempt", 0)),
            parent_span=payload.get("parent_span"),
        )

    @property
    def track_label(self) -> str:
        """Human label for this process's trace track."""
        if self.job_id:
            return f"worker:{self.job_id}#a{self.attempt}"
        return f"worker#a{self.attempt}"
