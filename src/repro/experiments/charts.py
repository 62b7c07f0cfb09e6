"""ASCII chart rendering for the figure-shaped experiment outputs.

The paper's Figures 3, 12 and 13 are bar charts; these helpers render
the same series as fixed-width text so ``repro experiment`` and the
files under ``tests/experiments/artefacts/`` read like the figures, not
just tables.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

from repro.errors import ConfigurationError

_FULL = "#"


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
    log_scale: bool = False,
) -> str:
    """Horizontal bar chart of label -> value.

    ``log_scale`` renders bar lengths on log10 (Figure 13 spans four
    orders of magnitude); values must then be positive.
    """
    if not values:
        raise ConfigurationError("bar_chart needs at least one value")
    if log_scale and any(v <= 0 for v in values.values()):
        raise ConfigurationError("log-scale bars need positive values")
    label_width = max(len(label) for label in values)
    if log_scale:
        logs = {k: math.log10(v) for k, v in values.items()}
        low = min(min(logs.values()), 0.0)
        high = max(logs.values())
        span = max(high - low, 1e-12)
        scaled = {k: (v - low) / span for k, v in logs.items()}
    else:
        high = max(max(values.values()), 1e-12)
        scaled = {k: max(v, 0.0) / high for k, v in values.items()}
    lines = []
    for label, value in values.items():
        bar = _FULL * max(1, int(round(scaled[label] * width)))
        rendered = f"{value:,.4g}{unit}"
        lines.append(f"{label.ljust(label_width)} |{bar} {rendered}")
    return "\n".join(lines)


def line_plot(
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: int = 72,
    markers: str = "*o+x",
) -> str:
    """ASCII line plot of one or more equally-sampled series.

    Used to regenerate the paper's behavioural sketches (Figures 4-8):
    membrane/conductance trajectories over time. Series are resampled
    to ``width`` columns and share one y-axis.
    """
    if not series:
        raise ConfigurationError("line_plot needs at least one series")
    values: List[List[float]] = []
    for name, data in series.items():
        data = list(float(v) for v in data)
        if not data:
            raise ConfigurationError(f"series {name!r} is empty")
        values.append(data)
    lo = min(min(v) for v in values)
    hi = max(max(v) for v in values)
    span = max(hi - lo, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for index, data in enumerate(values):
        marker = markers[index % len(markers)]
        n = len(data)
        for col in range(width):
            sample = data[min(n - 1, col * n // width)]
            row = int(round((hi - sample) / span * (height - 1)))
            grid[row][col] = marker
    lines = [
        f"{hi:9.3g} +" + "".join(grid[0]),
    ]
    for row in grid[1:-1]:
        lines.append(" " * 9 + " |" + "".join(row))
    if height > 1:
        lines.append(f"{lo:9.3g} +" + "".join(grid[-1]))
    legend = ", ".join(
        f"{markers[i % len(markers)]} = {name}"
        for i, name in enumerate(series)
    )
    return "\n".join(lines) + f"\nlegend: {legend}"


def stacked_fraction_chart(
    rows: Sequence[Dict],
    parts: Sequence[str],
    symbols: Sequence[str],
    width: int = 50,
) -> str:
    """100 %-stacked bars, one per row (the Figure 3 presentation).

    Each row is a dict with a ``label`` plus a float per part name;
    part values are normalised to fractions of their sum.
    """
    if len(parts) != len(symbols):
        raise ConfigurationError("one symbol per part is required")
    if not rows:
        raise ConfigurationError("need at least one row")
    label_width = max(len(str(row["label"])) for row in rows)
    lines = [
        "legend: "
        + ", ".join(f"{s} = {p}" for p, s in zip(parts, symbols))
    ]
    for row in rows:
        total = sum(float(row[part]) for part in parts)
        if total <= 0:
            bar = " " * width
        else:
            widths = [
                int(round(width * float(row[part]) / total)) for part in parts
            ]
            # Fix rounding drift so every bar is exactly `width` wide.
            drift = width - sum(widths)
            widths[widths.index(max(widths))] += drift
            bar = "".join(s * w for s, w in zip(symbols, widths))
        lines.append(f"{str(row['label']).ljust(label_width)} |{bar}|")
    return "\n".join(lines)
