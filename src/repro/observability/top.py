"""``repro top``: a live console view of a serving run or sweep.

Polls ``GET /status`` on an observability server (started by
``--serve`` on ``repro run`` / ``repro sweep``) and renders
a refreshing console dashboard: run state and throughput, per-phase
p50/p95, per-population ops/sec, plus the health layer's alert pane
and the event bus's publish/drop accounting. A sweep shows the job it
is running.

Rendering is a pure function of the status document
(:func:`format_top`), so the view is testable without a server; the
CLI loop around it is just fetch → clear → print → sleep. ``--once``
prints a single snapshot and exits (CI-friendly).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional

from repro.errors import ReproError

__all__ = ["fetch_status", "format_top", "run_top"]

#: ANSI clear-screen + cursor-home (what ``watch`` emits per frame).
CLEAR = "\x1b[2J\x1b[H"


def fetch_status(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/status`` and parse the JSON document."""
    target = url.rstrip("/") + "/status"
    try:
        with urllib.request.urlopen(target, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ReproError(
            f"cannot fetch {target!r}: {error}"
        ) from error


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.1f}"


def format_top(status: dict) -> str:
    """Render one ``/status`` snapshot as a console dashboard."""
    lines = []
    state = status.get("state", "unknown")
    network = status.get("network") or "?"
    header = f"repro top — {network} [{state}]"
    lines.append(header)
    lines.append("=" * len(header))

    step = status.get("current_step")
    planned = status.get("n_steps_planned")
    sps = status.get("steps_per_sec")
    if step is not None:
        progress = f"step {step:,}"
        if planned:
            progress += f" / {planned:,} ({100.0 * step / planned:5.1f}%)"
        if sps is not None:
            progress += f"   {sps:,.1f} steps/s"
        lines.append(progress)

    phases = status.get("phases") or {}
    if phases:
        lines.append("")
        lines.append(f"{'phase':<12} {'p50':>10} {'p95':>10}")
        for name, entry in phases.items():
            lines.append(
                f"{name:<12} {entry.get('p50_us', 0.0):>8.1f}us "
                f"{entry.get('p95_us', 0.0):>8.1f}us"
            )

    populations = status.get("populations") or {}
    if populations:
        lines.append("")
        lines.append(
            f"{'population':<14} {'neurons':>9} {'ops/s':>9} "
            f"{'p50':>10} {'p95':>10}"
        )
        for name, entry in sorted(populations.items()):
            p50 = entry.get("p50_us")
            p95 = entry.get("p95_us")
            lines.append(
                f"{name:<14} {entry.get('neurons', 0):>9,} "
                f"{_fmt_rate(entry.get('ops_per_sec', 0.0)):>9} "
                + (f"{p50:>8.1f}us " if p50 is not None else f"{'-':>10} ")
                + (f"{p95:>8.1f}us" if p95 is not None else f"{'-':>10}")
            )

    alerts = status.get("alerts") or {}
    if alerts:
        lines.append("")
        lines.append(
            f"alerts: {alerts.get('firing', 0)} firing, "
            f"{alerts.get('pending', 0)} pending, "
            f"{alerts.get('resolved', 0)} resolved "
            f"({alerts.get('rules', 0)} rule(s))"
        )
        for active in alerts.get("active") or []:
            lines.append(f"  ! {active}")

    sse = status.get("sse") or {}
    if sse:
        lines.append("")
        lines.append(
            f"sse: {sse.get('subscribers', 0)} subscriber(s), "
            f"{sse.get('published_total', 0)} event(s) published, "
            f"{sse.get('dropped_events_total', 0)} dropped"
        )

    updated = status.get("updated_ts")
    if updated:
        age = max(0.0, time.time() - updated)
        lines.append("")
        lines.append(f"updated {age:.1f}s ago")
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    stream=None,
    clear: bool = True,
) -> int:
    """The ``repro top`` loop; returns a process exit code.

    ``iterations=None`` refreshes until interrupted; ``iterations=1``
    is the ``--once`` mode. A fetch failure after a first successful
    frame ends the loop cleanly (the server finished and went away).
    """
    stream = stream if stream is not None else sys.stdout
    seen_one = False
    count = 0
    while iterations is None or count < iterations:
        try:
            status = fetch_status(url)
        except ReproError:
            if seen_one:
                print("server went away; exiting", file=stream)
                return 0
            raise
        frame = format_top(status)
        if clear and seen_one:
            stream.write(CLEAR)
        stream.write(frame + "\n")
        stream.flush()
        seen_one = True
        count += 1
        if iterations is not None and count >= iterations:
            break
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
    return 0
