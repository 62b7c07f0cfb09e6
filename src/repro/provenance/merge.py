"""Per-process span rings on the parent's clock.

Clock-offset correction
-----------------------
Worker spans are stamped with the worker's own ``time.time()``; the
parent timeline is the supervisor's clock. For a true offset ``d``
(``worker_clock = parent_clock + d``) and one-way pipe latency
``l >= 0``, a handshake message sent at worker time ``s`` and received
at parent time ``r`` satisfies ``r = (s - d) + l``, i.e.
``s - r = d - l <= d``. Every started/heartbeat message therefore
yields a lower bound on ``d``; the estimate is the *maximum* of
``s - r`` over all handshake samples (the bound is tightest for the
sample with the smallest latency), and corrected spans use
``ts - d_hat``, leaving a residual error of at most the minimum
observed latency. On one host the clocks agree and the correction is
just the pipe latency.

A :class:`ProcessRing` is one worker incarnation's ring with its
estimate attached; the supervisor's sweep trace draws each as its own
Perfetto thread track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

__all__ = ["ProcessRing", "estimate_offset"]


def estimate_offset(samples: Iterable[Tuple[float, float]]) -> float:
    """Estimate a worker's clock offset from handshake samples.

    ``samples`` are ``(worker_send_ts, parent_recv_ts)`` wall-clock
    pairs from the started/heartbeat messages. Returns ``d_hat`` such
    that ``worker_ts - d_hat`` maps onto the parent clock (0.0 with no
    samples). See the module docstring for the math.
    """
    best: Optional[float] = None
    for sent, received in samples:
        bound = sent - received
        if best is None or bound > best:
            best = bound
    return 0.0 if best is None else best


@dataclass
class ProcessRing:
    """One process incarnation's span ring, ready to merge.

    ``offset`` is the clock-offset estimate for this process;
    ``spans`` use the recorder's compact format. ``from_dump`` adapts a
    ``SpanRecorder`` dump shipped over the pipe or recovered from a
    sidecar.
    """

    label: str
    pid: int = 0
    offset: float = 0.0
    spans: List[dict] = field(default_factory=list)
    dropped: int = 0

    @staticmethod
    def from_dump(
        dump: dict, label: Optional[str] = None, offset: float = 0.0
    ) -> "ProcessRing":
        from repro.provenance.context import TraceContext

        context = TraceContext.from_payload(dump.get("context"))
        return ProcessRing(
            label=label or context.track_label,
            pid=int(dump.get("pid", 0)),
            offset=offset,
            spans=list(dump.get("spans", ())),
            dropped=int(dump.get("dropped_spans", 0)),
        )
