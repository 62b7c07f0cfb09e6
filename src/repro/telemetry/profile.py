"""The ``repro profile`` harness: a reproducible perf trajectory.

Runs registry workloads repeatedly — once bare, once with *all*
telemetry attached (metrics registry, trace hook, per-population kernel
spans) — and reports:

* per-phase and per-block **p50/p95 wall time** (from the trace
  hook's per-event durations) and **ops/sec** (from the metrics
  registry's phase counters — the profiler dogfoods the layer it
  measures);
* **steps/sec** for the bare and instrumented runs (best of
  ABBA-interleaved reps, so host drift and position-in-pair bias hit
  both series alike and scheduler noise is suppressed);
* the **overhead delta** — the fractional steps/sec cost of enabling
  every telemetry feature at once. The acceptance budget is < 5 % on
  the Izhikevich workload; the command computes and self-reports the
  measured value, and a test pins it.

The machine-readable output (``BENCH_profile.json``) carries
``dt``/``steps``/``scale``/``python``/``machine`` beside the
per-workload entries, so a profile names the conditions it was taken
under.
"""

from __future__ import annotations

import gc
import pathlib
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.assembly import DT, assemble
from repro.errors import ConfigurationError
from repro.io import atomic_write_json
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import TraceHook

__all__ = [
    "DEFAULT_WORKLOADS",
    "PROFILE_SCHEMA",
    "format_profile",
    "profile_workload",
    "run_profile",
]

PROFILE_SCHEMA = "repro-profile/1"

#: Three Euler-solved Table I workloads spanning small/medium structure.
DEFAULT_WORKLOADS = ("Brunel", "Izhikevich", "Nowotny et al.")


def _percentiles_us(durations: Sequence[float]) -> Dict[str, float]:
    if not durations:
        return {"p50_us": 0.0, "p95_us": 0.0}
    values = np.asarray(durations) * 1e6
    return {
        "p50_us": float(np.percentile(values, 50)),
        "p95_us": float(np.percentile(values, 95)),
    }


def profile_workload(
    name: str,
    backend: str = "reference",
    steps: int = 240,
    scale: float = 0.1,
    reps: int = 3,
    seed: int = 7,
    dt: float = DT,
    trace_path: Optional[str] = None,
    run_id: str = "",
) -> dict:
    """Profile one workload; returns its ``BENCH_profile.json`` entry.

    Two simulators are built from the same network and seeds, so the
    bare and instrumented measurements step through identical spike
    dynamics; reps are interleaved in ABBA order (bare/instrumented one
    rep, instrumented/bare the next) so both host drift *and*
    position-in-pair bias — CPU-quota refill favours whichever run goes
    first — hit both series equally. Garbage collection is paused
    during timing (as ``timeit`` does) and each series is summarised by
    its best rep — the standard way to suppress scheduler/GC noise when
    estimating a small relative delta.

    The trace ring buffer is sized to one rep's worth of events and
    pre-filled by a full warm-up rep, so every timed rep runs in the
    ring's steady state (appends recycle evicted entries instead of
    growing the heap). That is the overhead a long telemetered run
    actually pays — and one rep of events is exactly the window the
    p50/p95 percentiles need.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    assembly = assemble(name, backend, scale=scale, seed=seed, dt=dt)
    network = assembly.network
    bare = assembly.simulator()
    instrumented = assembly.simulator()

    metrics = MetricsRegistry()
    # Three phase events and one kernel span per block, every step.
    events_per_step = 3 + len(instrumented.backend.blocks)
    trace = TraceHook(max_events=steps * events_per_step, run_id=run_id)
    perf_counter = time.perf_counter

    # Warm-up both paths: lazy plan binding, allocator, caches — and
    # one full rep through the instrumented path to wrap the trace
    # ring into its steady state before timing starts.
    bare.run(steps, record_spikes=False)
    instrumented.run(steps, record_spikes=False, hooks=[trace], metrics=metrics)

    bare_sps: List[float] = []
    instrumented_sps: List[float] = []
    last_result = None
    def run_bare() -> None:
        start = perf_counter()
        bare.run(steps, record_spikes=False)
        bare_sps.append(steps / (perf_counter() - start))

    def run_instrumented() -> None:
        nonlocal last_result
        start = perf_counter()
        last_result = instrumented.run(
            steps, record_spikes=False, hooks=[trace], metrics=metrics
        )
        instrumented_sps.append(steps / (perf_counter() - start))

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(reps):
            if rep % 2 == 0:
                run_bare()
                run_instrumented()
            else:
                run_instrumented()
                run_bare()
    finally:
        if gc_was_enabled:
            gc.enable()

    if trace_path is not None:
        trace.save(trace_path)

    bare_best = float(max(bare_sps))
    instrumented_best = float(max(instrumented_sps))
    overhead = 1.0 - instrumented_best / bare_best

    phase_durations = trace.phase_durations()
    phase_stats: Dict[str, dict] = {}
    for phase, stats in last_result.phases.items():
        seconds_family = metrics.counter(
            "sim_phase_seconds_total", labels={"phase": phase}
        )
        ops_family = metrics.counter(
            "sim_phase_operations_total", labels={"phase": phase}
        )
        entry = _percentiles_us(phase_durations.get(phase, ()))
        entry["seconds_total"] = seconds_family.value
        entry["operations_total"] = int(ops_family.value)
        entry["ops_per_sec"] = (
            ops_family.value / seconds_family.value
            if seconds_family.value > 0
            else 0.0
        )
        phase_stats[phase] = entry

    # Kernel spans are per block: a row is one ``advance`` call, named
    # for the populations it steps.
    population_stats: Dict[str, dict] = {}
    durations = trace.population_durations()
    for block in instrumented.backend.blocks:
        entry = _percentiles_us(durations.get(block.name, ()))
        entry["neurons"] = block.n
        entry["members"] = [name for name, _, _ in block.members]
        population_stats[block.name] = entry

    return {
        "backend": last_result.backend_name,
        "neurons": network.n_neurons,
        "synapses": network.n_synapses,
        "steps_per_sec": {
            "bare": bare_best,
            "instrumented": instrumented_best,
        },
        "reps": {"bare": bare_sps, "instrumented": instrumented_sps},
        "overhead_delta": overhead,
        "phases": phase_stats,
        "populations": population_stats,
        "trace_events": trace.total_events,
        "trace_dropped_events": trace.dropped_events,
    }


def run_profile(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    backend: str = "reference",
    steps: int = 240,
    scale: float = 0.1,
    reps: int = 3,
    seed: int = 7,
    dt: float = DT,
    trace_path: Optional[str] = None,
    progress=None,
    run_id: str = "",
) -> dict:
    """Profile several workloads; returns the full JSON payload.

    ``trace_path`` saves the first workload's instrumented trace (the
    Perfetto-loadable sample CI uploads). ``progress`` is an optional
    ``callable(str)`` fed one line per finished workload. ``run_id``
    correlates the payload with the provenance ledger (minted when
    empty).
    """
    from repro.provenance.ledger import new_run_id

    run_id = run_id or new_run_id()
    entries: Dict[str, dict] = {}
    for index, name in enumerate(workloads):
        entry = profile_workload(
            name,
            backend=backend,
            steps=steps,
            scale=scale,
            reps=reps,
            seed=seed,
            dt=dt,
            trace_path=trace_path if index == 0 else None,
            run_id=run_id,
        )
        entries[name] = entry
        if progress is not None:
            progress(
                f"{name:20s} bare {entry['steps_per_sec']['bare']:9.1f} "
                f"instrumented {entry['steps_per_sec']['instrumented']:9.1f} "
                f"steps/s  overhead {100 * entry['overhead_delta']:+5.2f}%"
            )
    return {
        "schema": PROFILE_SCHEMA,
        "run_id": run_id,
        "dt": dt,
        "steps": steps,
        "scale": scale,
        "reps": reps,
        "backend": backend,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": entries,
        "max_overhead_delta": max(
            entry["overhead_delta"] for entry in entries.values()
        ),
    }


def format_profile(payload: dict) -> str:
    """Human-readable digest of a profile payload."""
    lines = [
        f"profile of {len(payload['workloads'])} workload(s) on "
        f"backend {payload['backend']!r} "
        f"({payload['steps']} steps x {payload['reps']} reps, "
        f"scale {payload['scale']})",
    ]
    for name, entry in payload["workloads"].items():
        sps = entry["steps_per_sec"]
        lines.append(
            f"\n{name}: {entry['neurons']:,} neurons on {entry['backend']}"
        )
        lines.append(
            f"  steps/sec     bare {sps['bare']:10.1f}   "
            f"instrumented {sps['instrumented']:10.1f}   "
            f"overhead {100 * entry['overhead_delta']:+5.2f}%"
        )
        for phase, stats in entry["phases"].items():
            lines.append(
                f"  {phase:10s} p50 {stats['p50_us']:8.1f} us   "
                f"p95 {stats['p95_us']:8.1f} us   "
                f"{stats['ops_per_sec']:14.0f} ops/s"
            )
        for population, stats in entry["populations"].items():
            lines.append(
                f"  pop:{population:8s} p50 {stats['p50_us']:8.1f} us   "
                f"p95 {stats['p95_us']:8.1f} us   "
                f"({stats['neurons']:,} neurons)"
            )
    lines.append(
        f"\nmax overhead delta: {100 * payload['max_overhead_delta']:+.2f}% "
        f"(budget: < 5%)"
    )
    return "\n".join(lines)


def write_profile(payload: dict, path) -> None:
    """Write the payload as ``BENCH_profile.json``-style output.

    Written atomically (:func:`repro.io.atomic_write_json`): a run
    killed mid-export leaves the previous profile intact rather than a
    truncated JSON document.
    """
    atomic_write_json(pathlib.Path(path), payload)
