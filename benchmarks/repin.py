#!/usr/bin/env python3
"""Two-tree script of the re-pin protocol (DESIGN.md, "Re-pinning digests").

A change that moves spike digests on purpose runs this once on the
parent tree and once on its own, then compares the two files:

    PYTHONPATH=<parent>/src python3 benchmarks/repin.py --out old.json
    PYTHONPATH=<change>/src python3 benchmarks/repin.py --out new.json
    PYTHONPATH=src python3 benchmarks/repin.py --compare old.json new.json

It records, for the ten registry workloads on ``reference`` and
``folded``: the spike digest at the scales the tests use (what may
change), and at scale 0.1 over 3,000 steps and seeds 1-8 the
per-population firing rate and ISI CV plus each stimulus's event rate
(what may not). ``--compare`` prints old -> new digests and fails when
a new 8-seed mean leaves the old 8-seed min-max widened by 10 %, or a
stimulus's events per target-step are more than 1 % from
``1 - (1 - p)^n_sources``. Runs are built by ``repro.assembly`` (what
``repro run`` does); only the per-stimulus event probe has one branch
per tree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from repro.analysis import cv_isi, population_rate_hz
from repro.assembly import DT, assemble
from repro.routing import DelayRing
from repro.workloads import workload_names

try:
    from repro.network.stimulus import StimulusPlan
except ImportError:  # a tree that still draws from one shared generator
    StimulusPlan = None

SEEDS = range(1, 9)
STAT_SCALE, STAT_STEPS = 0.1, 3000
#: (scale, steps, seed) of the digest rows: the scales the tests use.
DIGEST_RUNS = ((0.03, 300, 3), (0.05, 300, 1), (0.1, 400, 3))
BACKENDS = ("reference", "folded")


def _run(name, backend, scale, steps, seed):
    assembly = assemble(name, backend, scale=scale, seed=seed)
    return assembly, assembly.simulator().run(steps)


def _stimulus_event_rates(network, steps, seed):
    """Events per target-step of each stimulus, drawn on its own."""
    rates = []
    for stimulus in network.stimuli:
        target = stimulus.target
        ring = DelayRing(target.n, target.n_synapse_types, 1)
        events = 0
        if StimulusPlan is not None:
            plan = StimulusPlan([stimulus], {target.name: ring}, seed)
            for step in range(steps):
                events += plan.inject(step)
                ring.rotate()
            targets = len(stimulus.targets)
        else:
            rng = np.random.default_rng(seed)
            for step in range(steps):
                events += stimulus.generate(step, rng)[0].size
            targets = stimulus._indices.size
        expected = 1.0 - (1.0 - stimulus.p_spike) ** stimulus.n_sources
        rates.append({
            "target": target.name, "n_sources": stimulus.n_sources,
            "p": stimulus.p_spike, "targets": targets,
            "measured": events / (steps * targets), "expected": expected,
        })
    return rates


def collect() -> dict:
    document = {"digests": {}, "statistics": {}, "stimuli": {}}
    for name in workload_names():
        for backend in BACKENDS:
            for scale, steps, seed in DIGEST_RUNS:
                _, result = _run(name, backend, scale, steps, seed)
                key = f"{name}|{backend}|scale {scale}|{steps} steps|seed {seed}"
                document["digests"][key] = result.spikes.digest()
            for seed in SEEDS:
                assembly, result = _run(name, backend, STAT_SCALE, STAT_STEPS, seed)
                for pop, population in assembly.network.populations.items():
                    record = result.spikes.result(pop)
                    row = document["statistics"].setdefault(
                        f"{name}|{backend}|{pop}", {"rate_hz": [], "cv_isi": []}
                    )
                    row["rate_hz"].append(population_rate_hz(
                        record, population.n, STAT_STEPS, DT
                    ))
                    row["cv_isi"].append(cv_isi(record))
                if backend == "reference":
                    document["stimuli"][f"{name}|seed {seed}"] = (
                        _stimulus_event_rates(
                            assembly.network, STAT_STEPS, assembly.stimulus_seed
                        )
                    )
            print(f"{name} / {backend} done", file=sys.stderr)
    return document


def _mean(values):
    values = [v for v in values if not math.isnan(v)]
    return sum(values) / len(values) if values else float("nan")


def compare(old: dict, new: dict) -> int:
    problems = []
    print("## spike digests, old -> new")
    for key, digest in old["digests"].items():
        print(f"{key}: {digest[:12]} -> {new['digests'][key][:12]}")
    print("## statistics: new 8-seed mean vs old 8-seed min-max (+-10 %)")
    for key, row in old["statistics"].items():
        for what in ("rate_hz", "cv_isi"):
            values = [v for v in row[what] if not math.isnan(v)]
            mean = _mean(new["statistics"][key][what])
            if not values:
                # Undefined at the parent (no neuron with two ISIs on
                # any seed): nothing to hold the new value against.
                print(f"{key} {what}: undefined on every old seed, "
                      f"new mean {mean:.4g}")
                continue
            # 10 % of the range, plus rounding of an 8-term mean.
            margin = 0.1 * (max(values) - min(values)) + 1e-9 * max(values)
            low, high = min(values) - margin, max(values) + margin
            ok = low <= mean <= high
            print(f"{key} {what}: old [{low:.4g}, {high:.4g}] mean "
                  f"{_mean(values):.4g}, new mean {mean:.4g}"
                  f"{'' if ok else '  OUTSIDE'}")
            if not ok:
                problems.append(f"{key} {what}")
    print("## stimulus events per target-step (8-seed mean) vs "
          "1 - (1 - p)^n_sources")
    for label, document in (("old", old), ("new", new)):
        pooled = {}
        for key, rates in document["stimuli"].items():
            for index, rate in enumerate(rates):
                entry = pooled.setdefault(
                    (key.split("|")[0], index, rate["target"]),
                    {"expected": rate["expected"], "measured": []},
                )
                entry["measured"].append(rate["measured"])
        for (name, _, target), entry in pooled.items():
            error = _mean(entry["measured"]) / entry["expected"] - 1.0
            print(f"{label} {name} -> {target}: expected "
                  f"{entry['expected']:.5f}, off {error:+.3%}")
            if label == "new" and abs(error) > 0.01:
                problems.append(f"stimulus {name} -> {target} off {error:+.3%}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        documents = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        return compare(*documents)
    document = collect()
    with open(args.out or "repin.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
