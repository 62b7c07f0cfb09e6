#!/usr/bin/env python3
"""Step two trees in lockstep to compare their spread on a noisy host.

    python3 benchmarks/lockstep.py PARENT_TREE CHANGE_TREE
        [--workload muller-folded] [--chunk 100] [--seconds 90]

Each tree gets one process that builds the ``bench/`` workload once,
runs its warm-up and then times ``--chunk`` steps whenever the
controller hands it the token; the two alternate (order swapped every
pair), so their samples are milliseconds apart and see the same host.
Prints min / quartiles of the chunk times per tree in ms: equal
``q3 - q1`` means the change adds no variation of its own, whatever an
inter-quartile range over ten separate ``bench/run.py`` runs reads
(EXPERIMENTS.md, PR 17 re-check).

Last comes the paired verdict: the median of the per-pair change/parent
time ratios, and in how many pairs the change's chunk was the faster
(a sign count).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time


def child(tree: str, workload: str, chunk: int) -> None:
    sys.path[:0] = [tree, os.path.join(tree, "src")]
    from bench import measure
    from bench.workloads import WORKLOADS
    from repro.network.recorder import SpikeRecorder

    spec = WORKLOADS[workload]
    simulator, _network = measure.build(spec, 5)
    simulator.run(spec.warmup_steps, spikes=SpikeRecorder())
    print("ready", flush=True)
    for _token in sys.stdin:
        recorder = SpikeRecorder()
        start = time.perf_counter()
        simulator.run(chunk, spikes=recorder)
        print(time.perf_counter() - start, flush=True)


def describe(label: str, samples: list) -> None:
    ms = [1e3 * s for s in samples]
    q1, median, q3 = statistics.quantiles(ms, n=4)
    print(f"{label:7s} min {min(ms):7.1f}  q1 {q1:7.1f}  median {median:7.1f}  "
          f"q3 {q3:7.1f}  q3-q1 {q3 - q1:6.1f} ms  median/min {median / min(ms):.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--workload", default="muller-folded")
    parser.add_argument("--chunk", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=90.0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.trees[0], args.workload, args.chunk)
        return 0
    kids = [
        subprocess.Popen(
            [sys.executable, __file__, tree, tree, "--child",
             "--workload", args.workload, "--chunk", str(args.chunk)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for tree in args.trees
    ]
    try:
        for kid in kids:
            if kid.stdout.readline().strip() != "ready":
                print("lockstep: a tree failed to build", file=sys.stderr)
                return 1
        samples = [[], []]
        deadline = time.perf_counter() + args.seconds
        order = [0, 1]
        while time.perf_counter() < deadline:
            for side in order:
                kids[side].stdin.write("go\n")
                kids[side].stdin.flush()
                samples[side].append(float(kids[side].stdout.readline()))
            order.reverse()
    finally:
        for kid in kids:
            kid.stdin.close()
            kid.wait()
    print(f"{args.workload}: {len(samples[0])} pairs of {args.chunk}-step chunks")
    describe("parent", samples[0])
    describe("change", samples[1])
    ratios = [change / parent for parent, change in zip(*samples)]
    won = sum(ratio < 1.0 for ratio in ratios)
    print(f"paired  median change/parent {statistics.median(ratios):.3f}  "
          f"change faster in {won}/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
