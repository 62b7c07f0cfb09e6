"""Command-line interface: ``python -m repro`` (or ``repro-flexon``).

Subcommands:

``workloads``
    Print the Table I workload inventory.
``models``
    Print every supported neuron model, its feature combination, and
    its folded-Flexon microprogram length.
``microcode MODEL``
    Print the Table V-style control-signal listing for one model.
``run WORKLOAD``
    Build and simulate one Table I workload; print firing statistics
    and the phase breakdown. ``--checkpoint-every N`` writes a
    restorable checkpoint file every N steps; ``--resume-from PATH``
    continues a killed run bit-identically from its last checkpoint.
    Telemetry: ``--trace OUT.json`` writes a Perfetto/chrome://tracing
    timeline, ``--stats-json PATH`` dumps the run's statistics (its
    ``metrics`` block is the whole metrics registry) as JSON.
    SIGINT/SIGTERM stop the run gracefully at the next step boundary:
    a final checkpoint is written, partial statistics land in
    ``--stats-json`` (marked ``"partial": true``), and the process
    exits 130 (SIGINT) or 143 (SIGTERM) instead of printing a
    traceback.
``sweep [WORKLOAD ...]``
    Run workloads one after another in this process, each built and
    stepped exactly as ``run`` would (same spike digest) with a
    ``NumericsGuard`` attached. A job that raises a library error is
    reported failed and the loop goes on; the sweep exits 1 if any job
    failed. One ledger entry covers the whole sweep.
``experiment NAME``
    Print one paper artefact (a name in
    :data:`repro.experiments.ARTEFACTS`) exactly as its committed file
    ``tests/experiments/artefacts/NAME.txt`` holds it, or ``all`` of
    them under ``== NAME`` banners.
``simulate SPEC.json``
    Build a network from a declarative front-end spec (Section VII-B),
    simulate it on the backend the spec names, print its spike digest.
``spec WORKLOAD``
    Print a Table I workload as a front-end spec; with ``run``'s flags,
    ``simulate`` of it reports ``run``'s spike digest.
``runs``
    Query the run-provenance ledger (``ledger.jsonl``, schema
    ``repro-ledger/1``) that ``run``/``sweep`` append to:
    ``list`` recent runs (``--json`` for one record per line),
    ``show RUN_ID`` one full entry and
    ``diff A B`` two entries field by field (exit 1 when their spike
    digests diverge — the reproducibility alarm). Run ids accept
    unique prefixes. Opt out of recording with ``--no-ledger`` on any
    recording command.

``run`` and ``sweep`` share their setup: ``(workload, backend, scale,
seed, dt, solver)`` becomes the workload's front-end spec, which
:func:`repro.frontend.build_simulation` turns into a seeded simulator
(the spec is also what a checkpoint is matched against), and
:class:`repro.runcontext.RunContext` checks the output paths before the
work and writes the artifacts and the ledger entry after it.
Throughput, per-phase latency and telemetry overhead are measured by
``python3 bench/run.py`` (``BENCHMARK.json``), not by a subcommand.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.assembly import BACKENDS, DT, check_run_request
from repro.errors import ReproError
from repro.experiments import ARTEFACTS


def _cmd_workloads(_args) -> int:
    from repro.experiments.figure3 import table1_inventory

    print(table1_inventory())
    return 0


def _cmd_models(_args) -> int:
    from repro.experiments.common import format_table
    from repro.features import MODEL_FEATURES
    from repro.hardware.compiler import FlexonCompiler
    from repro.models.registry import create_model

    compiler = FlexonCompiler()
    rows = []
    for name, features in MODEL_FEATURES.items():
        compiled = compiler.compile(create_model(name), DT)
        rows.append(
            (
                name,
                "+".join(f.value for f in features),
                compiled.program.n_signals,
                compiled.program.cycles_per_neuron,
            )
        )
    rows.append(("HH", "(unsupported: hybrid path)", "-", "-"))
    print(
        format_table(
            ["Model", "Features", "Folded signals", "Cycles/neuron"], rows
        )
    )
    return 0


def _cmd_microcode(args) -> int:
    from repro.hardware.compiler import FlexonCompiler
    from repro.models.registry import create_model

    compiled = FlexonCompiler().compile(create_model(args.model), args.dt)
    print(compiled.program.listing())
    print(
        f"\nMUL constants: "
        f"{[hex(c & 0xFFFFFFFF) for c in compiled.program.mul_constants]}"
    )
    print(
        f"ADD constants: "
        f"{[hex(c & 0xFFFFFFFF) for c in compiled.program.add_constants]}"
    )
    print(f"weight pre-scale: {compiled.weight_scale:g}")
    return 0


def _job_fields(args) -> dict:
    """The arguments ``run`` and ``sweep`` share (what the ledger records)."""
    return {
        name: getattr(args, name)
        for name in ("backend", "steps", "scale", "seed", "dt", "solver")
    }


def _simulator(args, workload: str):
    """``workload`` as ``args`` describe it, built from its spec."""
    from repro.frontend import build_simulation
    from repro.workloads import spec_for

    spec = spec_for(workload, args.scale, args.seed, args.dt)
    simulator, _ = build_simulation({
        **spec, "backend": args.backend,
        "solver": args.solver or spec["solver"],
    })
    return simulator


#: ``repro-ledger/1`` keeps its key set: entries have always stated a
#: shard count in their config, and the config digest covers every key,
#: so runs (all single-process now) keep stating the 0 they always did.
_NO_SHARDS = {"shards": 0}


def _cmd_run(args) -> int:
    """``repro run``: one workload on ``Simulator.run`` + hooks."""
    import time

    from repro.errors import CheckpointError, RunInterrupted
    from repro.reliability import CheckpointHook
    from repro.runcontext import EXIT_CODES, RunContext, graceful_signals
    from repro.workloads import get_spec

    check_run_request(
        args.steps, args.checkpoint_every, args.trace_max_events, args.seed,
        dt=args.dt, backend=args.backend, solver=args.solver,
    )
    spec = get_spec(args.workload)
    config = {"workload": args.workload, **_job_fields(args), **_NO_SHARDS}
    ctx = RunContext(args, "run")
    simulator = _simulator(args, args.workload)
    network = simulator.network
    print(f"{spec}")
    print(f"run ID: {ctx.run_id}")
    print(
        f"built at scale {args.scale}: {network.n_neurons:,} neurons, "
        f"{network.n_synapses:,} synapses; backend: "
        f"{simulator.backend.name}"
    )
    spikes = None
    if args.resume_from:
        from repro.reliability import Checkpoint

        # The rebuilt simulator must match the checkpointed one; the
        # signature check (spec included) turns a mismatch into a clear
        # error instead of a silently wrong resume.
        checkpoint = Checkpoint.load(args.resume_from)
        checkpoint.restore(simulator)
        spikes = checkpoint.seed_recorder()
        print(
            f"resumed from {args.resume_from!r} at step "
            f"{simulator.current_step}"
        )
    remaining = args.steps - simulator.current_step
    if remaining < 0:
        raise CheckpointError(
            f"checkpoint is at step {simulator.current_step}, past the "
            f"requested {args.steps} steps"
        )
    hooks = []
    trace_hook = None
    if args.trace:
        from repro.telemetry import DEFAULT_MAX_EVENTS, TraceHook

        trace_hook = TraceHook(
            max_events=(
                DEFAULT_MAX_EVENTS
                if args.trace_max_events is None
                else args.trace_max_events
            ),
            run_id=ctx.run_id,
        )
        hooks.append(trace_hook)
    metrics = None
    if args.stats_json:
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
    checkpoints = CheckpointHook(
        simulator, args.checkpoint_path, every=args.checkpoint_every
    )
    hooks.append(checkpoints)
    wall_start = time.monotonic()
    try:
        with graceful_signals(checkpoints):
            result = simulator.run(
                remaining, hooks=hooks, spikes=spikes, metrics=metrics
            )
    except RunInterrupted as stop:
        print(
            f"\ninterrupted by {stop.signal_name} at step {stop.step}; "
            "stopping gracefully"
        )
        if stop.checkpoint:
            print(
                f"final checkpoint written to {stop.checkpoint!r}; resume "
                f"with --resume-from {stop.checkpoint!r}"
            )
        ctx.write_out(
            config,
            outcome=f"interrupted ({stop.signal_name})",
            duration=time.monotonic() - wall_start,
            interrupted=stop,
            artifacts={"checkpoint": stop.checkpoint},
            steps=stop.step,
        )
        return EXIT_CODES.get(stop.signal_name, 130)
    wall_seconds = time.monotonic() - wall_start
    duration = simulator.current_step * args.dt
    rate = (
        result.total_spikes() / max(1, network.n_neurons) / duration
        if duration > 0 else 0.0
    )
    print(
        f"\n{result.total_spikes():,} spikes in {duration * 1e3:.0f} ms "
        f"of biological time ({rate:.1f} Hz mean rate)"
    )
    print("per-phase wall-clock share:")
    for phase, fraction in result.phase_fractions().items():
        print(f"  {phase:10s} {100 * fraction:5.1f}%")
    if not result.diagnostics.healthy():
        print("reliability diagnostics:")
        for line in result.diagnostics.summary().splitlines():
            print(f"  {line}")
    trace = None
    if trace_hook is not None:
        document = trace_hook.trace_json()
        trace = (
            document,
            f"trace {args.trace!r} ({len(document['traceEvents'])} events, "
            f"{trace_hook.dropped_events} dropped)",
        )
    ctx.write_out(
        config,
        duration=wall_seconds,
        stats=result.to_stats_dict() if args.stats_json else None,
        trace=trace,
        artifacts={
            "checkpoint": (
                args.checkpoint_path if args.checkpoint_every else None
            ),
        },
        spike_digest=result.spikes.digest(),
        metrics={
            "total_spikes": result.total_spikes(),
            "mean_rate_hz": rate,
        },
    )
    return 0


def _cmd_sweep(args) -> int:
    """``repro sweep``: ``run``'s setup in a loop, one ledger entry."""
    import time

    from repro.experiments.common import format_table
    from repro.reliability.guard import NumericsGuard
    from repro.runcontext import RunContext
    from repro.workloads import get_spec, workload_names
    from repro.workloads.spec import validate_scale

    check_run_request(
        args.steps, seed=args.seed, min_steps=1, dt=args.dt,
        backend=args.backend, solver=args.solver,
    )
    validate_scale(args.scale)
    names = args.workloads or list(workload_names())
    for name in names:
        get_spec(name)  # fail fast on unknown workloads, before any build
    ctx = RunContext(args, "sweep")
    print(f"sweep run ID: {ctx.run_id}")
    print(f"running {len(names)} job(s) on backend {args.backend!r}")
    jobs = []
    sweep_start = time.monotonic()
    for name in names:
        job_start = time.monotonic()
        job = {"name": name, "backend": args.backend}
        try:
            simulator = _simulator(args, name)
            result = simulator.run(
                args.steps, hooks=[NumericsGuard(simulator.backend)]
            )
        except ReproError as error:
            print(f"job {name!r} failed: {error}")
            job.update(outcome="failed", error=str(error))
        else:
            job.update(
                outcome="completed",
                total_spikes=result.total_spikes(),
                spike_digest=result.spikes.digest(),
                stats=result.to_stats_dict(),
            )
        job["wall_seconds"] = time.monotonic() - job_start
        jobs.append(job)
    wall_seconds = time.monotonic() - sweep_start
    n_failed = sum(job["outcome"] == "failed" for job in jobs)
    rows = [
        (
            job["name"], job["backend"], job["outcome"],
            f"{job['total_spikes']:,}" if "total_spikes" in job else "-",
            f"{job['wall_seconds']:.2f}s",
        )
        for job in jobs
    ]
    print()
    print(format_table(["Job", "Backend", "Outcome", "Spikes", "Wall"], rows))
    print(
        f"\n{len(jobs) - n_failed}/{len(jobs)} jobs completed "
        f"in {wall_seconds:.2f}s"
    )
    digests = {job["name"]: job["spike_digest"] for job in jobs
               if "spike_digest" in job}
    ctx.write_out(
        {"workloads": names, **_job_fields(args), **_NO_SHARDS},
        outcome="failed" if n_failed else "completed",
        duration=wall_seconds,
        stats={
            "schema": "repro-sweep/2",
            "jobs": jobs,
            "completed": len(jobs) - n_failed,
            "failed": n_failed,
            "wall_seconds": wall_seconds,
        },
        stats_label="sweep report",
        # One job's digest is THE digest; several jobs pin per-job
        # digests in the extra block instead.
        spike_digest=digests.get(names[0]) if len(names) == 1 else None,
        metrics={
            "jobs": len(jobs),
            "completed": len(jobs) - n_failed,
            "failed": n_failed,
        },
        extra={"job_digests": digests},
    )
    return 1 if n_failed else 0


def _cmd_experiment(args) -> int:
    from repro.experiments import render, takes
    from repro.workloads.spec import validate_scale

    # Before any output: the experiments divide by the step count.
    params = {}
    if args.steps is not None:
        check_run_request(args.steps, min_steps=1)
        params["steps"] = args.steps
    if args.scale is not None:
        validate_scale(args.scale)
        params["scale"] = args.scale
    if args.name != "all":
        print(render(args.name, **params))
        return 0
    for name in ARTEFACTS:
        print(f"== {name} " + "=" * max(1, 60 - len(name)))
        print(render(name, **{k: params[k] for k in takes(name) if k in params}))
        print()
    return 0


def _cmd_simulate(args) -> int:
    from repro.frontend import build_simulation, load_spec

    # Before the spec is built: a bad step count fails with no banner.
    check_run_request(args.steps)
    spec = load_spec(args.spec)
    simulator, network = build_simulation(spec)
    print(
        f"{network.name}: {network.n_neurons:,} neurons, "
        f"{network.n_synapses:,} synapses on "
        f"{simulator.backend.name}"
    )
    result = simulator.run(args.steps)
    duration = args.steps * simulator.dt
    for name, population in network.populations.items():
        record = result.spikes.result(name)
        # A zero-length run has no rate to divide out: report 0.0 Hz.
        rate = record.n_spikes / population.n / duration if duration else 0.0
        print(f"  {name:12s} {record.n_spikes:8,d} spikes ({rate:7.1f} Hz)")
    print(f"spike digest: {result.spikes.digest()}")
    if network.plasticity_rules:
        for rule in network.plasticity_rules:
            print(
                f"  plastic {rule.projection.name}: mean weight "
                f"{rule.mean_weight():.4f}"
            )
    return 0


def _cmd_spec(args) -> int:
    import json

    from repro.workloads import spec_for

    check_run_request(
        0, seed=args.seed, dt=args.dt, backend=args.backend,
        solver=args.solver,
    )
    spec = spec_for(args.workload, args.scale, args.seed, args.dt)
    spec.update(backend=args.backend, solver=args.solver or spec["solver"])
    print(json.dumps(spec, indent=2))
    return 0


def _cmd_runs(args) -> int:
    """``repro runs``: query the run-provenance ledger."""
    import json

    from repro.errors import ConfigurationError
    from repro.provenance import (
        diff_entries,
        find_entry,
        load_ledger,
        newest_first,
        runs_document,
    )

    if args.action == "list" and args.limit < 1:
        raise ConfigurationError(f"--limit must be >= 1, got {args.limit}")
    entries = load_ledger(args.ledger)

    if args.action == "list":
        if args.kind:
            entries = [e for e in entries if e.get("kind") == args.kind]
        if args.workload:
            entries = [
                e for e in entries
                if args.workload in str(e.get("workload") or "")
            ]
        if args.json:
            for entry in newest_first(entries, args.limit):
                print(json.dumps(entry, sort_keys=True))
            return 0
        document = runs_document(entries, limit=args.limit)
        if not document["runs"]:
            print(f"no matching runs in {args.ledger!r}")
            return 0
        from repro.experiments.common import format_table

        rows = [
            (
                row["run_id"],
                row["timestamp"],
                row["kind"],
                row["workload"],
                row["backend"] or "-",
                row["shards"],
                row["steps"],
                row["outcome"],
                row["spike_digest"] or "-",
            )
            for row in document["runs"]
        ]
        print(
            format_table(
                [
                    "Run", "When", "Kind", "Workload", "Backend",
                    "Shards", "Steps", "Outcome", "Spike digest",
                ],
                rows,
            )
        )
        shown = len(document["runs"])
        print(
            f"\n{shown} of {document['n_runs']} run(s) in {args.ledger!r}"
            + ("" if shown == document["n_runs"] else " (raise --limit)")
        )
        return 0

    if args.action == "show":
        entry = find_entry(entries, args.run_id)
        shown = dict(entry)
        # Entries recorded by the retired sharded run carry their
        # processes' span rings inline.
        rings = shown.get("trace_rings")
        if rings is not None and not args.full:
            shown["trace_rings"] = (
                f"<{len(rings)} ring(s) omitted; --full to include>"
            )
        print(json.dumps(shown, indent=2))
        return 0

    # args.action == "diff"
    a = find_entry(entries, args.run_a)
    b = find_entry(entries, args.run_b)
    print(f"a: {a['run_id']}  ({a.get('timestamp')})")
    print(f"b: {b['run_id']}  ({b.get('timestamp')})")
    differences = diff_entries(a, b)
    if not differences:
        print("entries are identical across all compared fields")
    for field, left, right in differences:
        print(f"  {field:14s} {left!r:>34}  ->  {right!r}")
    digest_a, digest_b = a.get("spike_digest"), b.get("spike_digest")
    if digest_a and digest_b:
        if digest_a != digest_b:
            print(
                "\nSPIKE DIGEST DIVERGENCE: the two runs produced "
                "different spike trains"
            )
            return 1
        print("\nspike digests match: bit-identical spike trains")
    else:
        print("\nspike digest not recorded for both runs; not compared")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flexon (ISCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the Table I workloads")
    sub.add_parser("models", help="list supported neuron models")

    microcode = sub.add_parser(
        "microcode", help="print a model's folded-Flexon microprogram"
    )
    microcode.add_argument("model")
    microcode.add_argument("--dt", type=float, default=DT)

    run = sub.add_parser("run", help="simulate one Table I workload")
    run.add_argument("workload")
    _add_run_flags(run, backend="folded")
    run.add_argument("--steps", type=int, default=1000)
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="write a restorable checkpoint every N steps (0 = off)",
    )
    run.add_argument(
        "--checkpoint-path",
        default="repro-checkpoint.ckpt",
        help="file the periodic checkpoint is (atomically) written to",
    )
    run.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help="resume bit-identically from a checkpoint file; --steps "
        "is the total step count including the checkpointed prefix",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a chrome://tracing / Perfetto trace of the run",
    )
    run.add_argument(
        "--trace-max-events",
        type=int,
        default=None,
        metavar="N",
        help="trace ring-buffer capacity (default: TraceHook's bound)",
    )
    run.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="dump phase stats, counters, diagnostics and metrics as JSON",
    )
    _add_ledger_flags(run)

    sweep = sub.add_parser(
        "sweep",
        help="run workloads one after another, each as `run` would, "
        "under one ledger entry",
    )
    sweep.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="Table I workload names (default: the full registry)",
    )
    _add_run_flags(sweep, backend="reference")
    sweep.add_argument("--steps", type=int, default=400)
    sweep.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the sweep report (repro-sweep/2: per-job outcome, "
        "spike digest and run statistics) as JSON",
    )
    _add_ledger_flags(sweep)

    experiment = sub.add_parser(
        "experiment", help="print a paper table/figure exactly as committed"
    )
    experiment.add_argument("name", choices=(*ARTEFACTS, "all"))
    # Unset leaves each artefact's own default, the committed file's.
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument("--steps", type=int, default=None)

    simulate = sub.add_parser(
        "simulate", help="run a declarative front-end spec (JSON)"
    )
    simulate.add_argument("spec", help="path to a JSON network spec")
    simulate.add_argument("--steps", type=int, default=1000)

    spec = sub.add_parser("spec", help="print a workload as a JSON spec")
    spec.add_argument("workload")
    _add_run_flags(spec, backend="folded")

    runs = sub.add_parser(
        "runs",
        help="query the run-provenance ledger (what ran, with which "
        "config, producing which spike digest)",
    )
    runs.add_argument(
        "--ledger",
        default="ledger.jsonl",
        metavar="PATH",
        help="the ledger file to query (default: ledger.jsonl)",
    )
    runs_sub = runs.add_subparsers(dest="action", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="list recorded runs, newest first"
    )
    runs_list.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most N runs (default 20)",
    )
    runs_list.add_argument(
        "--kind", default=None,
        # Ledgers keep entries of the retired ``repro profile`` command.
        choices=("run", "sweep", "profile"),
        help="only runs of this kind",
    )
    runs_list.add_argument(
        "--workload", default=None, metavar="NAME",
        help="only runs whose workload contains NAME",
    )
    runs_list.add_argument(
        "--json",
        action="store_true",
        help="print one full ledger record per line (newest first) "
        "instead of the summary table — jq/script friendly",
    )
    runs_show = runs_sub.add_parser(
        "show", help="print one run's full ledger entry as JSON"
    )
    runs_show.add_argument(
        "run_id", help="full run id or unique prefix"
    )
    runs_show.add_argument(
        "--full", action="store_true",
        help="include the inline span rings an old entry may carry",
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two runs field by field; exits 1 when their "
        "spike digests diverge",
    )
    runs_diff.add_argument("run_a", help="run id or unique prefix")
    runs_diff.add_argument("run_b", help="run id or unique prefix")
    return parser


def _add_run_flags(parser: argparse.ArgumentParser, backend: str) -> None:
    """The run description ``run``, ``sweep`` and ``spec`` share."""
    parser.add_argument("--backend", choices=BACKENDS, default=backend)
    parser.add_argument(
        "--solver", default=None, help="reference solver override"
    )
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--dt", type=float, default=DT)
    parser.add_argument("--seed", type=int, default=1)


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default="ledger.jsonl",
        metavar="PATH",
        help="append this invocation's provenance entry here "
        "(query with `repro runs`; default: ledger.jsonl)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this invocation in the run ledger",
    )


_COMMANDS = {
    "workloads": _cmd_workloads,
    "models": _cmd_models,
    "microcode": _cmd_microcode,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "experiment": _cmd_experiment,
    "simulate": _cmd_simulate,
    "spec": _cmd_spec,
    "runs": _cmd_runs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not a failure.
        # Detach stdout so interpreter shutdown doesn't warn about the
        # unflushable stream.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
