"""Structured run diagnostics: what the reliability layer observed.

A :class:`RunDiagnostics` rides along on every
:class:`~repro.network.simulator.SimulationResult`. It carries the
per-population fixed-point clip accounting of the hardware runtimes
(see :class:`~repro.fixedpoint.fixed.SaturationStats`).

A run with an empty diagnostics object behaved exactly as the paper's
correctness claims promise; anything recorded here is a quantified
deviation, not a silent one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.fixedpoint import SaturationStats


@dataclass
class RunDiagnostics:
    """Reliability events accumulated over one simulator's lifetime."""

    #: Fixed-point saturation accounting, keyed by population.
    saturation: Dict[str, SaturationStats] = field(default_factory=dict)

    @property
    def fallbacks(self) -> list:
        """Always empty. Kept, like stats-json's
        ``diagnostics.fallbacks``, because the benchmark harness reads
        it."""
        return []

    @property
    def total_saturations(self) -> int:
        """Clipped elements across every population and format."""
        return sum(stats.total_clipped for stats in self.saturation.values())

    def healthy(self) -> bool:
        """True when nothing clipped."""
        return self.total_saturations == 0

    def to_dict(self) -> dict:
        """A JSON-serialisable view (``repro run --stats-json``)."""
        return {
            "healthy": self.healthy(),
            "total_saturations": self.total_saturations,
            "fallbacks": self.fallbacks,
            "saturation": {
                population: {
                    "checked": stats.checked,
                    "total_clipped": stats.total_clipped,
                    "clipped_by_format": {
                        fmt.describe(): count
                        for fmt, count in sorted(
                            stats.clipped.items(),
                            key=lambda item: item[0].describe(),
                        )
                    },
                }
                for population, stats in sorted(self.saturation.items())
            },
        }

    def summary(self) -> str:
        """Human-readable digest (empty string when healthy)."""
        lines: List[str] = []
        for population, stats in sorted(self.saturation.items()):
            if stats.total_clipped:
                lines.append(f"{population!r} saturation: {stats.describe()}")
        return "\n".join(lines)
