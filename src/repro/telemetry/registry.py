"""MetricsRegistry: the one sink every layer's counters publish into.

The paper's argument is built on measurement (the Figure 3 per-phase
breakdown, the Figure 13 latency/energy comparisons), but until this
layer the reproduction's observations lived in three disconnected
places: ``SimulationResult.phases``, the reliability diagnostics, and
ad-hoc attributes on individual runtimes. The registry gives them one
address space: named metric families with optional labels, collected
from the simulator loop, every population runtime, the spike queues,
and the reliability layer, and exported two ways —

* :meth:`MetricsRegistry.snapshot` — a plain-JSON dict, attached to
  ``SimulationResult.metrics`` and dumped by ``repro run --stats-json``;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, served at ``/metrics`` by ``repro run --serve`` so any
  existing scrape pipeline can read a live run.

Three metric kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically non-decreasing totals. Besides
  ``inc``, a counter supports ``set_total`` for the publish-at-collect
  pattern: a runtime that already keeps a lifetime tally (e.g. clip
  counts) sets the cumulative value at collection time instead of
  paying per-event increments on the hot path.
* :class:`Gauge` — point-in-time values (activity factors, queue
  depth).
* :class:`Histogram` — fixed, immutable bucket bounds chosen at
  creation; ``observe`` is O(log buckets) via :func:`bisect.bisect_left`
  over a tuple that never reallocates, so the hot path does no
  allocation and no Python-level loop.

Families are create-or-get: asking for the same name (and kind)
returns the same family, and each distinct label set materialises one
child. Hot-path code holds the child object directly and never goes
through the registry per event.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default bucket bounds for wall-clock histograms: 1 µs .. 10 s in
#: roughly 1-3-10 steps — wide enough for a whole step of any Table I
#: workload, fine enough to separate the phases.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)

#: Names that already passed validation — publish-at-collect re-looks
#: up the same few dozen families every run, so don't re-scan them.
_KNOWN_NAMES: set = set()


def _check_name(name: str) -> None:
    # The Prometheus exposition grammar: [a-zA-Z_][a-zA-Z0-9_]* — a
    # leading digit would parse as a sample value, not a name.
    if name in _KNOWN_NAMES:
        return
    if (
        not name
        or name[0].isdigit()
        or not all(c.isalnum() or c == "_" for c in name)
    ):
        raise ConfigurationError(
            f"invalid metric name {name!r}: must match "
            f"[a-zA-Z_][a-zA-Z0-9_]*"
        )
    _KNOWN_NAMES.add(name)


def _labels_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    # Exposition format: backslash, double-quote and newline must be
    # escaped inside label values.
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    # HELP lines are newline-delimited: a literal newline or backslash
    # in help text must be escaped or the line after it parses as junk.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    escaped = ",".join(
        '{}="{}"'.format(k, _escape_label_value(v)) for k, v in key
    )
    return "{" + escaped + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter increments must be >= 0, got {amount}"
            )
        self.value += amount

    def set_total(self, total: float) -> None:
        """Set the cumulative total (publish-at-collect pattern).

        The value may only move forward: a runtime republishing its
        lifetime tally can never make the counter go down.
        """
        if total < self.value:
            raise ConfigurationError(
                f"counter total may not decrease ({self.value} -> {total})"
            )
        self.value = total


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bound cumulative histogram with an O(1) hot path.

    Bucket bounds are chosen once at creation and never change, so
    ``observe`` is a single binary search over a constant tuple plus
    three scalar updates — no allocation, no resizing.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned:
            raise ConfigurationError("histogram needs at least one bound")
        if list(cleaned) != sorted(set(cleaned)):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing, got {cleaned}"
            )
        self.bounds = cleaned
        #: One count per finite bound, plus the +Inf overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(cleaned) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative per-``le`` counts (ends at count)."""
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket boundaries.

        Returns the upper bound of the first bucket whose cumulative
        count reaches the requested rank (the last finite bound for the
        overflow bucket); 0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            if running >= rank:
                return bound
        return self.bounds[-1]


class _Family:
    """One named metric family: kind, help text, children by label set."""

    def __init__(self, name: str, kind: str, help_text: str, bounds=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.bounds = bounds
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def child(self, key: Tuple[Tuple[str, str], ...]):
        child = self.children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.bounds)
            self.children[key] = child
        return child


class MetricsRegistry:
    """Create-or-get registry of named counter/gauge/histogram families."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- family accessors --------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str, bounds=None) -> _Family:
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, bounds)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"not a {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """The counter child of ``name`` for the given label set."""
        return self._family(name, "counter", help).child(_labels_key(labels))

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """The gauge child of ``name`` for the given label set."""
        return self._family(name, "gauge", help).child(_labels_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        """The histogram child of ``name`` for the given label set.

        The bucket bounds are fixed by the first registration; later
        calls must not try to change them.
        """
        family = self._family(name, "histogram", help, tuple(buckets))
        if family.bounds != tuple(float(b) for b in buckets):
            raise ConfigurationError(
                f"histogram {name!r} already registered with bounds "
                f"{family.bounds}"
            )
        return family.child(_labels_key(labels))

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A plain-JSON view of every family (sorted, deterministic)."""
        out: Dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            values = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: Dict[str, object] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                    entry["buckets"] = {
                        _format_value(bound): cumulative
                        for bound, cumulative in zip(
                            (*child.bounds, float("inf")),
                            child.cumulative_counts(),
                        )
                    }
                else:
                    entry["value"] = child.value
                values.append(entry)
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return out

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if family.kind == "histogram":
                    for bound, cumulative in zip(
                        (*child.bounds, float("inf")),
                        child.cumulative_counts(),
                    ):
                        bucket_key = key + (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_key)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
