#!/usr/bin/env python3
"""One benchmark for the whole simulator.

    python3 bench/run.py [--workload NAME ...] [--seed 5] [--seconds 20]
                         [--trace 0|1] [--out bench/out/result.json]
    python3 bench/run.py --smoke

``--trace 0`` (default) runs each workload untraced and reports the
end-to-end metrics ``wall_s``, ``setup_s``, ``steps_per_s`` and
``peak_rss_mb``; ``--trace 1`` runs the traced protocol and reports the
per-layer metrics. Either way every output is checked and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", "--workloads", action="append", default=None,
        metavar="NAME[,NAME]", help="workloads to run (default: all six)",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measurement length the repetition counts are scaled to "
        "(default: the nominal 20)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1,
        help="1: traced protocol, per-layer metrics",
    )
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument(
        "--smoke", action="store_true",
        help="both protocols on every workload at 1/20 of its steps, then "
        "check every name BENCHMARK.json declares is emitted with its unit",
    )
    return parser.parse_args(argv)


def show(name: str, result: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    print(f"== {name}: {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for missing in result.get("trace_missing", ()):
        print(f"   trace target gone: {missing}")
    for metric, entry in result["metrics"].items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        line = f"   {metric:48s} {value:>14s} {entry['unit']}"
        if "n" in entry:
            line += (f"   [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                     f"n {entry['n']}]")
        print(line)


def last_line(result: dict) -> str:
    """The driver's result object. A per-layer metric whose trace
    target is gone reads 0 here; the result file keeps it ``null``."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"] or 0.0, "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    })


def smoke_problems(results: dict) -> list:
    """What ``--smoke`` asserts about BENCHMARK.json and the output."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = []
    for key, limit in (("workloads", 8), ("end_to_end", 16), ("per_layer", 128)):
        if len(declared[key]) > limit:
            problems.append(f"{len(declared[key])} {key}, limit {limit}")
        for entry in declared[key]:
            if not NAME.match(entry["name"]):
                problems.append(f"bad name {entry['name']!r} in {key}")
    if [w["name"] for w in declared["workloads"]] != list(results):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name, (untraced, traced) in results.items():
        for key, result in (("end_to_end", untraced), ("per_layer", traced)):
            for entry in declared[key]:
                emitted = result["metrics"].get(entry["name"])
                if emitted is None:
                    problems.append(f"{name}: {entry['name']} not emitted")
                elif emitted["unit"] != entry["unit"]:
                    problems.append(
                        f"{name}: {entry['name']} unit {emitted['unit']!r}, "
                        f"declared {entry['unit']!r}"
                    )
            problems.extend(f"{name}: {f}" for f in result["failures"])
    return problems


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    # The script's own directory leaves the path, so bench/trace.py
    # cannot shadow the standard library's ``trace``.
    sys.path[:] = [
        entry for entry in sys.path
        if Path(entry or os.curdir).resolve() != BENCH_DIR
    ]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import measure
    from bench.workloads import NOMINAL_SECONDS, WORKLOADS

    names = [
        name for given in args.workload or [",".join(WORKLOADS)]
        for name in given.split(",")
    ]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = NOMINAL_SECONDS if args.seconds is None else args.seconds
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    started = time.perf_counter()

    if args.smoke:
        results = {}
        for name in names:
            workload = dataclasses.replace(
                WORKLOADS[name],
                warmup_steps=max(1, WORKLOADS[name].warmup_steps // 20),
                steps=max(1, WORKLOADS[name].steps // 20),
                hot_mb=0,  # names and units are checked, not timings
            )
            results[name] = (
                measure.end_to_end(
                    workload, args.seed, 1, 1, 0, str(out_dir),
                    check_rates=False,
                ),
                measure.per_layer(
                    workload, args.seed, str(out_dir), check_rates=False
                ),
            )
            for result in results[name]:
                show(name, result)
        problems = smoke_problems(results)
        for problem in problems:
            print(f"SMOKE FAILED {problem}")
        print(f"smoke: {len(problems)} problem(s) in "
              f"{time.perf_counter() - started:.1f} s")
        return 1 if problems else 0

    results = {}
    for name in names:
        if args.trace:
            result = measure.per_layer(WORKLOADS[name], args.seed, str(out_dir))
        else:
            workload = WORKLOADS[name]
            result = measure.end_to_end(
                workload, args.seed, *measure.counts(workload, seconds),
                str(out_dir),
            )
        results[name] = result
        show(name, result)
    default = "result-trace.json" if args.trace else "result.json"
    out_path = Path(args.out) if args.out else out_dir / default
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": "bench-result/1",
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "elapsed_s": time.perf_counter() - started,
            "workloads": results,
        }, handle, indent=1)
    print(f"wrote {out_path}")
    for result in results.values():
        print(last_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
