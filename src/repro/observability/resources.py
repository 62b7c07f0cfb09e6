"""Per-process resource telemetry: RSS, CPU time, open FDs.

Stdlib-only, by the same rule as the rest of the observability plane:
``/proc/self/statm`` supplies the resident set size on Linux,
:func:`resource.getrusage` supplies cumulative CPU time (and the RSS
high-water mark as a fallback where ``/proc`` is absent), and
``/proc/self/fd`` supplies the open-descriptor count where it exists.
Every read degrades gracefully — a platform without a source reports
``0.0`` / ``None`` for that field rather than raising — so the sampler
is safe to run unconditionally on any POSIX-ish host.

The plane's ``/metrics`` handler publishes the standard ``process_*``
families at each scrape (:func:`declare_process_metrics` pins the
names, types, and help strings — the golden exposition test locks them
byte-for-byte).
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

__all__ = [
    "ResourceSampler",
    "declare_process_metrics",
    "read_cpu_seconds",
    "read_open_fds",
    "read_rss_bytes",
]

#: Pinned family names (the Prometheus standard process metrics).
PROCESS_RSS = "process_resident_memory_bytes"
PROCESS_CPU = "process_cpu_seconds_total"
PROCESS_FDS = "process_open_fds"

_HELP_RSS = "Resident set size of this process in bytes."
_HELP_CPU = "Total user and system CPU time spent by this process."
_HELP_FDS = "Open file descriptors held by this process."


def _page_size() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return 4096


def read_rss_bytes() -> float:
    """Current resident set size in bytes (0.0 when unreadable).

    Prefers ``/proc/self/statm`` (instantaneous, Linux); falls back to
    ``getrusage``'s high-water mark elsewhere (monotone, so still a
    usable memory-pressure signal, just not a live one).
    """
    try:
        with open("/proc/self/statm", "rb") as statm:
            fields = statm.read().split()
        return float(int(fields[1]) * _page_size())
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is kilobytes on Linux, bytes on macOS; the /proc
        # path above covers Linux anyway.
        return float(usage.ru_maxrss) * 1024.0
    except Exception:
        return 0.0


def read_cpu_seconds() -> float:
    """Cumulative user+system CPU seconds (0.0 when unreadable)."""
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        return float(usage.ru_utime + usage.ru_stime)
    except Exception:
        try:
            return float(time.process_time())
        except Exception:
            return 0.0


def read_open_fds() -> Optional[int]:
    """Open descriptor count, or ``None`` where /proc is absent."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def declare_process_metrics(metrics) -> Tuple[object, object, object]:
    """Register the ``process_*`` families; returns (rss, cpu, fds).

    One declaration path shared by the live sampler and the golden
    exposition test, so the pinned names/help/types can never drift
    from what a running plane actually exposes.
    """
    rss = metrics.gauge(PROCESS_RSS, _HELP_RSS)
    cpu = metrics.counter(PROCESS_CPU, _HELP_CPU)
    fds = metrics.gauge(PROCESS_FDS, _HELP_FDS)
    return rss, cpu, fds


class ResourceSampler:
    """Samples this process's resource usage and publishes it.

    ``sample()`` returns a plain dict; ``publish(metrics)`` also lands the
    values on the pinned ``process_*`` families. CPU seconds are
    published with ``set_total`` and clamped monotone, so a registry
    scraped mid-``getrusage``-glitch never sees a counter go down.
    """

    def __init__(self) -> None:
        self._cpu_floor = 0.0

    def sample(self) -> dict:
        cpu = max(self._cpu_floor, read_cpu_seconds())
        self._cpu_floor = cpu
        return {
            "rss_bytes": read_rss_bytes(),
            "cpu_seconds": cpu,
            "open_fds": read_open_fds(),
        }

    def publish(self, metrics) -> dict:
        """Sample and publish onto ``metrics``; returns the sample."""
        values = self.sample()
        rss, cpu, fds = declare_process_metrics(metrics)
        rss.set(values["rss_bytes"])
        cpu.set_total(values["cpu_seconds"])
        if values["open_fds"] is not None:
            fds.set(values["open_fds"])
        return values
