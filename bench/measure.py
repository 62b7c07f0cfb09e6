"""The measurement protocol: repetitions, CLI launches, output checks.

Two protocols share the same building blocks:

* :func:`end_to_end` — untraced. In-process repetitions (each builds
  the network fresh and constructs the ``Simulator``, timed together as
  one set-up; runs the warm-up untimed; times one ``Simulator.run``),
  then launches of the program's own CLI over the warm-up steps, one
  child at a time, timed from spawn to exit with the child's own peak
  RSS. ``steps_per_s`` comes from the fastest repetition and ``wall_s``
  from the fastest launch, because what the sandbox's other tenants add
  is never negative and never repeats; ``setup_s`` and ``peak_rss_mb``
  are medians. ``bench/README.md`` has the measurements behind that.
* :func:`per_layer` — one repetition under :class:`bench.trace.Tracer`
  plus the untraced repetitions it is compared against, one launch, and
  the small fixed-cost probes (CLI start-up, ledger append, checkpoint).

An *operation* is one repetition, one set-up, one launch or one check;
every protocol reports how many it attempted and which failed.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.frontend import build_simulation
from repro.hardware.backend import FlexonBackend, FoldedFlexonBackend
from repro.network.backends import ReferenceBackend
from repro.network.recorder import SpikeRecorder
from repro.network.simulator import Simulator
from repro.telemetry import MetricsRegistry, TraceHook
from repro.workloads import build_workload, get_spec

from bench.trace import LOOP_CHILDREN, Tracer, resolve
from bench.workloads import NOMINAL_SECONDS, Workload, brunel_stdp_spec

DT = 1e-4
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Steps of the Flexon == folded digest contract (Table III).
PREFIX_STEPS = 300

Value = Optional[float]


# -- accounting ---------------------------------------------------------------


class Ops:
    """Operations attempted and failed by one protocol run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, label: str, function, *args, **kwargs):
        """Run one operation; an exception makes it a failed one."""
        self.attempted += 1
        try:
            return function(*args, **kwargs)
        except Exception as error:  # boundary: record and keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: {error!r}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values),
    }


def metric(value: Value, unit: str, samples: Sequence[float] = ()) -> dict:
    entry = {"value": value, "unit": unit}
    if samples:
        entry.update(spread(samples))
    return entry


def counts(workload: Workload, seconds: float) -> tuple:
    """``(reps, launches, extra set-ups)`` of one measurement: the
    workload's nominal counts scaled to ``--seconds``, with at least
    two repetitions and launches so a median and quartiles exist."""
    scale = seconds / NOMINAL_SECONDS
    return (
        max(2, round(workload.reps * scale)),
        max(2, round(workload.launches * scale)),
        round(workload.extra_setups * scale),
    )


# -- memory conditioning ------------------------------------------------------


class HotPages:
    """Keeps touched memory in hand between measurements.

    The sandbox VM hands free guest pages back to the host about two
    seconds after they were freed; touching such a page again costs
    3-10 us per KiB instead of 0.2, which made one and the same 10 M
    synapse build take 0.55 s or 3.1 s depending on what had been freed
    when. Holding ``mb`` MiB of touched pages and releasing them right
    before a build or a launch lets the measured code draw pages the
    host still backs, so set-up and wall times measure the program, not
    the balloon. What the process grew by since the release (the
    network just built) counts towards ``mb`` at the next hold, so the
    pool stays one size and is only ever touched cold once.
    """

    def __init__(self, mb: int) -> None:
        self._mb = mb
        self._block = None
        self._released_at_mb = self._resident_mb() if mb else 0.0

    @staticmethod
    def _resident_mb() -> float:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    def hold(self) -> None:
        if self._mb and self._block is None:
            grown = max(0.0, self._resident_mb() - self._released_at_mb)
            self._block = np.ones(max(0, int(self._mb - grown)) << 17)

    def release(self) -> None:
        if self._mb:
            self._block = None
            self._released_at_mb = self._resident_mb()

    def settle(self) -> None:
        """Wait out the guest's pending free-page report.

        The report runs two seconds after pages were freed and takes
        whatever is free at that moment. A child needs ~1 s to import
        and build, so pages released to it while a report is pending
        (the previous child's exit queued one) often went cold first:
        launch walls read 1.2 to 3.0 s. Released after the pause, with
        the pool still held through it, they read 1.18 to 1.41 s.
        """
        if self._mb:
            time.sleep(2.2)


# -- in-process repetitions ---------------------------------------------------


def build(workload: Workload, seed: int):
    """``(simulator, network)`` ready to step, as ``repro run`` /
    ``repro simulate`` build it: build seed ``seed``, simulator seed
    ``seed + 1`` (the front-end uses its spec's one seed for both)."""
    if workload.registry is None:
        return build_simulation(brunel_stdp_spec(seed))
    network = build_workload(workload.registry, scale=workload.scale, seed=seed)
    backend = {
        "reference": lambda: ReferenceBackend(get_spec(workload.registry).solver),
        "flexon": lambda: FlexonBackend(DT),
        "folded": lambda: FoldedFlexonBackend(DT),
    }[workload.backend]()
    return Simulator(network, backend, dt=DT, seed=seed + 1), network


@dataclass
class Rep:
    """What one in-process repetition measured and produced."""

    setup_s: float
    #: Wall of the untimed warm-up run (the steps a launch simulates).
    warm_s: float
    run_s: float
    #: Spike digest after the warm-up, and after the whole run.
    prefix_digest: str
    digest: str
    neuron_updates: int
    synaptic_events: int
    n_neurons: int
    n_synapses: int
    #: population -> (size, spikes after warm-up, spikes after the run).
    populations: Dict[str, tuple]
    #: plastic projection -> mean weight after the warm-up, formatted
    #: as ``repro simulate`` prints it.
    prefix_weights: Dict[str, str]
    hook_errors: int
    fallbacks: int
    #: Live objects, for the traced repetition's probes; dropped by
    #: :meth:`forget` so the next build can reuse their memory.
    simulator: object = field(repr=False, default=None)
    result: object = field(repr=False, default=None)

    def forget(self) -> "Rep":
        self.simulator = self.result = None
        return self


def timed_setup(workload: Workload, seed: int, hot: HotPages):
    """``(setup_s, simulator, network)``: network build plus
    ``Simulator`` construction, up to ready-to-step."""
    gc.collect()
    hot.release()
    start = time.perf_counter()
    simulator, network = build(workload, seed)
    setup_s = time.perf_counter() - start
    hot.hold()
    return setup_s, simulator, network


def run_rep(
    workload: Workload, seed: int, hot: HotPages, hooks=(), metrics=None
) -> Rep:
    """Set up, run the warm-up untimed, time one ``Simulator.run``."""
    setup_s, simulator, network = timed_setup(workload, seed, hot)
    recorder = SpikeRecorder()
    start = time.perf_counter()
    warm = simulator.run(
        workload.warmup_steps, spikes=recorder, hooks=hooks, metrics=metrics
    )
    warm_s = time.perf_counter() - start
    prefix_digest = recorder.digest()
    prefix_spikes = recorder.counts()
    prefix_weights = {
        rule.projection.name: f"{rule.mean_weight():.4f}"
        for rule in network.plasticity_rules
    }
    start = time.perf_counter()
    result = simulator.run(
        workload.steps, spikes=recorder, hooks=hooks, metrics=metrics
    )
    run_s = time.perf_counter() - start
    spikes = recorder.counts()
    return Rep(
        setup_s=setup_s,
        warm_s=warm_s,
        run_s=run_s,
        prefix_digest=prefix_digest,
        digest=recorder.digest(),
        neuron_updates=result.neuron_updates,
        synaptic_events=result.synaptic_events,
        n_neurons=network.n_neurons,
        n_synapses=network.n_synapses,
        populations={
            name: (population.n, prefix_spikes.get(name, 0), spikes.get(name, 0))
            for name, population in network.populations.items()
        },
        prefix_weights=prefix_weights,
        hook_errors=len(warm.hook_errors) + len(result.hook_errors),
        fallbacks=len(result.diagnostics.fallbacks),
        simulator=simulator,
        result=result,
    )


def prefix_digests(workload: Workload, seed: int) -> List[str]:
    """Spike digests of the first ``PREFIX_STEPS`` steps on baseline
    and folded Flexon (one network, two simulators)."""
    network = build_workload(workload.registry, scale=workload.scale, seed=seed)
    return [
        Simulator(network, backend, dt=DT, seed=seed + 1)
        .run(PREFIX_STEPS).spikes.digest()
        for backend in (FlexonBackend(DT), FoldedFlexonBackend(DT))
    ]


# -- CLI launches -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def timed_child(argv: List[str], cwd: str, log_path: str):
    """Run one child to completion: ``(wall_s, peak_rss_mib, output)``.

    The child runs under ``bench/child.py``, which times it from spawn
    to exit and takes this child's own ``ru_maxrss`` from ``os.wait4``
    (see there for why not from this process). Raises on a non-zero
    exit or a timeout.
    """
    trampoline = subprocess.Popen(
        [sys.executable, "-S", "-E",
         os.path.join(os.path.dirname(__file__), "child.py"), log_path, *argv],
        cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        reported, _ = trampoline.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(trampoline.pid, signal.SIGKILL)
        trampoline.communicate()
        raise
    with open(log_path, encoding="utf-8") as log:
        output = log.read()
    if trampoline.returncode != 0:
        raise RuntimeError(f"bench/child.py exited {trampoline.returncode}")
    report = json.loads(reported)
    if report["returncode"] != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:])} exited {report['returncode']}: "
            f"{output[-400:]}"
        )
    return report["wall_s"], report["maxrss_kb"] / 1024.0, output


_COUNT_LINE = re.compile(r"^\s+(\S+)\s+([\d,]+) spikes \(", re.MULTILINE)
_WEIGHT_LINE = re.compile(
    r"^\s+plastic (\S+): mean weight (\S+)$", re.MULTILINE
)


def launch(workload: Workload, seed: int, hot: HotPages, tmp: str, index: int):
    """One launch of the program's CLI: the workload's warm-up steps.

    Returns wall, peak RSS and what the program reported: the spike
    digest, hook errors and fallbacks from ``--stats-json`` (``repro
    run``), or the printed per-population spike counts and plastic mean
    weight (``repro simulate``, which prints no digest).
    """
    python = [sys.executable, "-m", "repro.cli"]
    stats_path = os.path.join(tmp, f"stats-{index}.json")
    if workload.registry is None:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(brunel_stdp_spec(seed), handle)
        argv = python + [
            "simulate", spec_path, "--steps", str(workload.warmup_steps),
        ]
    else:
        argv = python + [
            "run", workload.registry,
            "--backend", workload.backend,
            "--scale", str(workload.scale),
            "--steps", str(workload.warmup_steps),
            "--seed", str(seed),
            "--ledger", os.path.join(tmp, "ledger.jsonl"),
            "--stats-json", stats_path,
        ]
    gc.collect()
    hot.settle()
    hot.release()
    try:
        wall_s, rss_mb, output = timed_child(
            argv, tmp, os.path.join(tmp, f"launch-{index}.log")
        )
    finally:
        hot.hold()
    report = {"wall_s": wall_s, "rss_mb": rss_mb}
    if workload.registry is None:
        report["counts"] = {
            name: int(count.replace(",", ""))
            for name, count in _COUNT_LINE.findall(output)
        }
        report["weights"] = dict(_WEIGHT_LINE.findall(output))
    else:
        with open(stats_path, encoding="utf-8") as handle:
            stats = json.load(handle)
        report["digest"] = stats["spike_digest"]
        report["hook_errors"] = len(stats["hook_errors"])
        report["fallbacks"] = len(stats["diagnostics"]["fallbacks"])
    return report


def ledger_digests(tmp: str) -> List[Optional[str]]:
    """``spike_digest`` of every entry the launches appended."""
    path = os.path.join(tmp, "ledger.jsonl")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line).get("spike_digest") for line in handle]


# -- checks -------------------------------------------------------------------


def rates_hz(workload: Workload, rep: Rep) -> Dict[str, float]:
    """Mean firing rate of each population over the whole run."""
    duration = workload.total_steps * DT
    return {
        name: spikes / (size * duration)
        for name, (size, _, spikes) in rep.populations.items()
    }


def check_outputs(
    ops: Ops,
    workload: Workload,
    reps: List[Rep],
    launches: List[dict],
    ledger: List[Optional[str]],
    check_rates: bool,
) -> None:
    """The output checks shared by both protocols."""
    ops.check(
        "one spike digest across repetitions",
        len({rep.digest for rep in reps}) == 1,
        f"saw {sorted({rep.digest for rep in reps})}",
    )
    # A launch simulates the warm-up steps, so it must reproduce what
    # the repetitions had recorded when their warm-up ended.
    prefixes = {rep.prefix_digest for rep in reps}
    if workload.registry is None and reps:
        counts = {
            name: spikes
            for name, (_, spikes, _) in reps[0].populations.items()
        }
        ops.check(
            "repro simulate printed the in-process spike counts and weight",
            all(
                report["counts"] == counts
                and report["weights"] == reps[0].prefix_weights
                for report in launches
            ),
            f"in-process {counts} {reps[0].prefix_weights}, "
            f"launches {launches}",
        )
    elif workload.registry is not None:
        ops.check(
            "launches and repetitions agree on the warm-up's spike digest",
            len(prefixes | {report["digest"] for report in launches}) == 1,
            f"in-process {sorted(prefixes)}, launches "
            f"{[report['digest'] for report in launches]}",
        )
        ops.check(
            "one ledger entry per launch, carrying that digest",
            len(ledger) == len(launches) and set(ledger) <= prefixes,
            f"{len(ledger)} entries for {len(launches)} launches: {ledger}",
        )
    ops.check(
        "neuron_updates == n_neurons x steps",
        all(r.neuron_updates == r.n_neurons * workload.steps for r in reps),
        f"{[r.neuron_updates for r in reps]}",
    )
    ops.check(
        "equal synaptic_events across repetitions",
        len({rep.synaptic_events for rep in reps}) == 1,
        f"{[rep.synaptic_events for rep in reps]}",
    )
    ops.check(
        "no hook errors, no solver fallbacks",
        not any(r.hook_errors or r.fallbacks for r in reps)
        and not any(
            r.get("hook_errors") or r.get("fallbacks") for r in launches
        ),
    )
    if check_rates and reps:
        rates = rates_hz(workload, reps[0])
        outside = {
            name: round(rates.get(name, 0.0), 2)
            for name, (low, high) in workload.rates.items()
            if not low <= rates.get(name, 0.0) <= high
        }
        ops.check(
            "population mean rates inside their bands",
            not outside, f"outside: {outside}",
        )


# -- the untraced protocol ----------------------------------------------------


def end_to_end(
    workload: Workload, seed: int, n_reps: int, n_launches: int,
    n_setups: int, out_dir: str, check_rates: bool = True,
) -> dict:
    ops = Ops()
    hot = HotPages(workload.hot_mb)
    hot.hold()
    reps: List[Rep] = []
    for index in range(n_reps):
        rep = ops.attempt(f"repetition {index}", run_rep, workload, seed, hot)
        if rep is not None:
            reps.append(rep.forget())
        rep = None
    setups = [rep.setup_s for rep in reps]
    for index in range(n_setups):
        sample = ops.attempt(f"set-up {index}", timed_setup, workload, seed, hot)
        if sample is not None:
            setups.append(sample[0])
        sample = None
    launches: List[dict] = []
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="run-") as tmp:
        for index in range(n_launches):
            report = ops.attempt(
                f"launch {index}", launch, workload, seed, hot, tmp, index
            )
            if report is not None:
                launches.append(report)
        ledger = ledger_digests(tmp)
    hot.release()
    check_outputs(ops, workload, reps, launches, ledger, check_rates)
    if workload.backend == "folded":
        digests = ops.attempt("flexon/folded prefix", prefix_digests, workload, seed)
        ops.check(
            f"flexon == folded digest on a {PREFIX_STEPS}-step prefix",
            digests is not None and digests[0] == digests[1], f"{digests}",
        )

    metrics: Dict[str, dict] = {}
    if launches:
        walls = [report["wall_s"] for report in launches]
        rss = [report["rss_mb"] for report in launches]
        metrics["wall_s"] = metric(min(walls), "s", walls)
        metrics["peak_rss_mb"] = metric(statistics.median(rss), "MiB", rss)
    if setups:
        metrics["setup_s"] = metric(statistics.median(setups), "s", setups)
    if reps:
        runs = [rep.run_s for rep in reps]
        metrics["steps_per_s"] = metric(
            workload.steps / min(runs), "steps/s",
            [workload.steps / run for run in runs],
        )
    return {
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures,
        "rates_hz": rates_hz(workload, reps[0]) if reps else {},
        "metrics": metrics,
    }


# -- the traced protocol ------------------------------------------------------


def _percentile_us(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e6


def _ratio(numerator: Value, denominator: Value, scale: float = 1.0) -> Value:
    if numerator is None or not denominator:
        return None
    return scale * numerator / denominator


def _computed_bytes(simulator) -> Dict[str, Value]:
    """Synapse-table and delay-ring sizes, computed from array shapes
    (not measured: they ignore allocator overhead and temporaries)."""
    sizes: Dict[str, Value] = {
        "network.projection.csr_bytes": None, "routing.ring_bytes": None,
    }
    try:
        sizes["network.projection.csr_bytes"] = float(sum(
            array.nbytes
            for projection in simulator.network.projections
            for array in (projection.post_idx, projection.weights,
                          projection.delays, projection.pre_ptr)
        ))
        sizes["routing.ring_bytes"] = float(sum(
            ring.depth * ring.n_synapse_types * ring.n * 8
            for ring in simulator.router.rings.values()
        ))
    except AttributeError:
        pass
    return sizes


def _checkpoint_probe(simulator, tmp: str) -> Dict[str, Value]:
    """Seconds to capture + save a checkpoint, and its size."""
    try:
        _, _, checkpoint_class = resolve(
            "repro.reliability.checkpoint.Checkpoint"
        )
    except LookupError:
        return {"reliability.checkpoint.save_s": None,
                "reliability.checkpoint.bytes": None}
    path = os.path.join(tmp, "probe.ckpt")
    start = time.perf_counter()
    checkpoint_class.capture(simulator).save(path)
    elapsed = time.perf_counter() - start
    return {"reliability.checkpoint.save_s": elapsed,
            "reliability.checkpoint.bytes": float(os.path.getsize(path))}


def _ledger_probe(tmp: str, appends: int = 20) -> Value:
    """Median seconds of one ``append_entry`` (write + fsync)."""
    try:
        _, _, append_entry = resolve("repro.provenance.ledger.append_entry")
        _, _, make_entry = resolve("repro.provenance.ledger.make_entry")
    except LookupError:
        return None
    path = os.path.join(tmp, "probe-ledger.jsonl")
    samples = []
    for index in range(appends):
        entry = make_entry("run", f"probe-{index}", {"probe": index})
        start = time.perf_counter()
        append_entry(path, entry)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _startup_probe(tmp: str, launches: int = 5) -> float:
    """Median wall of ``python -m repro.cli workloads``."""
    argv = [sys.executable, "-m", "repro.cli", "workloads"]
    return statistics.median(
        timed_child(argv, tmp, os.path.join(tmp, "startup.log"))[0]
        for _ in range(launches)
    )


def per_layer(
    workload: Workload, seed: int, out_dir: str, check_rates: bool = True,
) -> dict:
    ops = Ops()
    hot = HotPages(workload.hot_mb)
    hot.hold()
    values: Dict[str, Value] = {}
    tracer = Tracer(workload.total_steps, workload.warmup_steps)

    # Untraced (A) and program-telemetry (B) repetitions around the
    # traced one; ABBA where the telemetry overhead is asked for.
    plan = "A" + "T" + ("BBA" if workload.telemetry else "")
    reps: Dict[str, List[Rep]] = {"A": [], "B": [], "T": []}
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="trace-") as tmp:
        for index, kind in enumerate(plan):
            if kind == "T":
                with tracer.patched():
                    rep = ops.attempt(
                        "traced repetition", run_rep, workload, seed, hot,
                        hooks=[tracer.hook],
                    )
                if rep is not None:
                    values.update(_computed_bytes(rep.simulator))
                    values.update(ops.attempt(
                        "checkpoint probe", _checkpoint_probe,
                        rep.simulator, tmp,
                    ) or {})
                    values.update(_object_counters(rep))
            elif kind == "B":
                rep = ops.attempt(
                    f"telemetry repetition {index}", run_rep, workload, seed,
                    hot, hooks=[TraceHook()], metrics=MetricsRegistry(),
                )
            else:
                rep = ops.attempt(
                    f"untraced repetition {index}", run_rep, workload, seed, hot
                )
            if rep is not None:
                reps[kind].append(rep.forget())
            rep = None
        report = ops.attempt("launch", launch, workload, seed, hot, tmp, 0)
        launches = [report] if report is not None else []
        ledger = ledger_digests(tmp)
        hot.release()
        values["cli.startup_s"] = ops.attempt(
            "cli start-up probe", _startup_probe, tmp
        )
        values["provenance.ledger.append_s"] = ops.attempt(
            "ledger probe", _ledger_probe, tmp
        )
    everything = reps["A"] + reps["T"] + reps["B"]
    check_outputs(ops, workload, everything, launches, ledger, check_rates)

    def overhead(kind: str) -> Value:
        """Share of the untraced step rate lost in ``kind`` repetitions
        (fastest repetition of each, as for ``steps_per_s``)."""
        if not reps[kind] or not reps["A"]:
            return None
        untraced = min(rep.run_s for rep in reps["A"])
        return 1.0 - untraced / min(rep.run_s for rep in reps[kind])

    values["trace.overhead_frac"] = overhead("T")
    values["telemetry.overhead_frac"] = overhead("B")
    if launches and reps["A"]:
        # What only a launch pays: its wall minus what the same set-up
        # and the same steps cost in process.
        values["cli.overhead_s"] = launches[0]["wall_s"] - min(
            rep.setup_s + rep.warm_s for rep in reps["A"]
        )
    if reps["T"]:
        traced = reps["T"][0]
        values.update(_span_metrics(tracer, traced))
        # The rule's counter covers the warm-up too, so its time must.
        values["plasticity.stdp.ns_per_applied_update"] = _ratio(
            tracer.total("plasticity.stdp.step", timed_only=False),
            values.get("plasticity.stdp.applied_updates"), 1e9,
        )
        ops.check(
            "traced spans fit inside the run span",
            values["network.simulator.loop_self_s"] >= 0.0,
            f"loop_self_s {values['network.simulator.loop_self_s']}",
        )
        events = tracer.write_chrome_trace(
            os.path.join(out_dir, f"trace-{workload.name}.json"), workload.name
        )
        ops.check("span window recorded", events > 0)
    return {
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures,
        "trace_missing": tracer.missing,
        "metrics": {
            name: metric(values.get(name), unit)
            for name, unit in PER_LAYER_UNITS.items()
        },
    }


def _object_counters(rep: Rep) -> Dict[str, Value]:
    """Simulated statistics and public counters of the traced run:
    exact counts that must not move unless an issue says so."""
    simulator, result = rep.simulator, rep.result
    evaluations = list(result.evaluations_per_step.values())
    values: Dict[str, Value] = {
        "solvers.evaluations_per_step": statistics.mean(evaluations),
        "hardware.saturation_clips": float(sum(
            stats.total_clipped
            for stats in result.diagnostics.saturation.values()
        )),
        "hardware.cycles_per_neuron": 0.0,
        "plasticity.stdp.applied_updates": 0.0,
        "plasticity.stdp.deferred_updates": 0.0,
        "network.simulator.spikes": float(
            sum(spikes for _, _, spikes in rep.populations.values())
        ),
    }
    cycles = getattr(simulator.backend, "cycles_per_neuron", None)
    if cycles is not None:
        values["hardware.cycles_per_neuron"] = statistics.mean(
            cycles(name) for name in simulator.network.populations
        )
    for rule in simulator.network.plasticity_rules:
        values["plasticity.stdp.applied_updates"] += rule.applied_updates
        values["plasticity.stdp.deferred_updates"] += rule.deferred_updates
    return values


def _span_metrics(tracer: Tracer, rep: Rep) -> Dict[str, Value]:
    """Per-layer times, counts and rates of the traced repetition."""
    values: Dict[str, Value] = {}
    total = tracer.total

    def layer(span: str, per: Optional[str] = None) -> None:
        """``<span>_s``; with ``per`` also ``_calls`` and ``_ns_per_<per>``."""
        values[f"{span}_s"] = total(span)
        if per is not None:
            values[f"{span}_calls"] = total(span, "calls")
            values[f"{span}_ns_per_{per}"] = _ratio(
                total(span), total(span, "events"), 1e9
            )

    layer("network.stimulus.generate")
    layer("routing.ring.inject")
    layer("network.backends.advance", "update")
    layer("network.recorder.record")
    layer("network.projection.gather", "event")
    layer("routing.ring.scatter", "event")
    layer("plasticity.stdp.step")
    layer("routing.router.rotate")
    events = total("network.stimulus.generate", "events")
    values["network.stimulus.events"] = events
    values["network.stimulus.ns_per_event"] = _ratio(
        values["network.stimulus.generate_s"], events, 1e9
    )
    values["network.recorder.digest_s"] = tracer.outside("network.recorder.digest")
    init_s = tracer.outside("network.simulator.init")
    values["network.simulator.init_s"] = init_s
    if init_s is not None:
        build_s = rep.setup_s - init_s
        values["workloads.build_s"] = build_s
        values["workloads.synapses_built_per_s"] = _ratio(rep.n_synapses, build_s)

    phases = {phase: tracer.phase_samples(phase) for phase in tracer.phase_seconds}
    in_phases = sum(sum(samples) for samples in phases.values())
    for phase, samples in phases.items():
        prefix = f"network.simulator.phase.{phase}"
        values[f"{prefix}.share"] = _ratio(sum(samples), in_phases)
        values[f"{prefix}.p50_us"] = _percentile_us(samples, 50)
        values[f"{prefix}.p99_us"] = _percentile_us(samples, 99)
    steps = [sum(parts) for parts in zip(*phases.values())]
    values["network.simulator.step_p50_us"] = _percentile_us(steps, 50)
    values["network.simulator.step_p99_us"] = _percentile_us(steps, 99)
    children = sum(total(name) or 0.0 for name in LOOP_CHILDREN)
    values["network.simulator.loop_self_s"] = rep.run_s - children
    values["network.simulator.neuron_updates_per_s"] = rep.neuron_updates / rep.run_s
    values["network.simulator.syn_events_per_s"] = rep.synaptic_events / rep.run_s
    return values


#: Every per-layer metric and its unit, as BENCHMARK.json declares them.
PER_LAYER_UNITS: Dict[str, str] = {
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "workloads.build_s": "s",
    "workloads.synapses_built_per_s": "1/s",
    "network.simulator.init_s": "s",
    "network.projection.csr_bytes": "bytes",
    "routing.ring_bytes": "bytes",
    "network.stimulus.generate_s": "s",
    "network.stimulus.events": "count",
    "network.stimulus.ns_per_event": "ns",
    "routing.ring.inject_s": "s",
    "network.backends.advance_s": "s",
    "network.backends.advance_calls": "count",
    "network.backends.advance_ns_per_update": "ns",
    "solvers.evaluations_per_step": "count",
    "hardware.cycles_per_neuron": "cycles",
    "hardware.saturation_clips": "count",
    "network.projection.gather_s": "s",
    "network.projection.gather_calls": "count",
    "network.projection.gather_ns_per_event": "ns",
    "routing.ring.scatter_s": "s",
    "routing.ring.scatter_calls": "count",
    "routing.ring.scatter_ns_per_event": "ns",
    "routing.router.rotate_s": "s",
    "plasticity.stdp.step_s": "s",
    "plasticity.stdp.applied_updates": "count",
    "plasticity.stdp.deferred_updates": "count",
    "plasticity.stdp.ns_per_applied_update": "ns",
    "network.recorder.record_s": "s",
    "network.recorder.digest_s": "s",
    "provenance.ledger.append_s": "s",
    "network.simulator.phase.stimulus.share": "frac",
    "network.simulator.phase.stimulus.p50_us": "us",
    "network.simulator.phase.stimulus.p99_us": "us",
    "network.simulator.phase.neuron.share": "frac",
    "network.simulator.phase.neuron.p50_us": "us",
    "network.simulator.phase.neuron.p99_us": "us",
    "network.simulator.phase.synapse.share": "frac",
    "network.simulator.phase.synapse.p50_us": "us",
    "network.simulator.phase.synapse.p99_us": "us",
    "network.simulator.step_p50_us": "us",
    "network.simulator.step_p99_us": "us",
    "network.simulator.loop_self_s": "s",
    "network.simulator.neuron_updates_per_s": "1/s",
    "network.simulator.syn_events_per_s": "1/s",
    "network.simulator.spikes": "count",
    "reliability.checkpoint.save_s": "s",
    "reliability.checkpoint.bytes": "bytes",
    "telemetry.overhead_frac": "frac",
    "trace.overhead_frac": "frac",
}
