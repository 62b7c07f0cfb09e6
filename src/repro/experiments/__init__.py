"""Experiment harnesses: one module per paper table/figure.

Each module exposes a ``run(...)`` entry point returning a structured
result plus a ``format_*`` helper that renders the same rows/series the
paper reports:

* :mod:`repro.experiments.figure3` — per-phase latency breakdown on the
  CPU and GPU models for all ten Table I SNNs (plus the Table I
  inventory itself);
* :mod:`repro.experiments.table3` — feature combinations simulate the
  eleven neuron models (verified against the reference simulator);
* :mod:`repro.experiments.table5` — folded-Flexon microprogram listings
  and cycle counts per feature;
* :mod:`repro.experiments.figure12` — area/power of the per-feature
  data paths, baseline Flexon, and folded Flexon;
* :mod:`repro.experiments.table6` — array-level area/power;
* :mod:`repro.experiments.figure13` — latency and energy-efficiency
  improvements of both arrays over CPU and GPU per workload;
* :mod:`repro.experiments.validation` — the Section VI-A output-spike
  verification against the software reference;
* :mod:`repro.experiments.figures4to8` — the feature-behaviour sketch
  figures, regenerated as fixed-point hardware traces;
* :mod:`repro.experiments.behaviors` — Izhikevich-style neuronal
  behaviour regimes demonstrated on the hardware model;
* :mod:`repro.experiments.amdahl` — end-to-end (whole-step) speedups,
  bounded by the host-side phases;
* :mod:`repro.experiments.charts` — ASCII bar/stacked/line rendering
  shared by the figure-shaped outputs.
"""

from repro.experiments.common import (
    WorkloadProfile,
    format_table,
    profile_workload,
)

__all__ = ["WorkloadProfile", "format_table", "profile_workload"]
