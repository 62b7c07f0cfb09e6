#!/usr/bin/env python3
"""Fail when building a workload's network, or a plastic run's synapse
index, peaks too far above its tables.

    python3 benchmarks/build_peak.py WORKLOAD SCALE MAX_BYTES_PER_SYNAPSE
    python3 benchmarks/build_peak.py brunel-stdp MAX_BYTES_PER_PLASTIC_SYNAPSE

The first form builds the registry workload in a fresh child
interpreter and reports ``(ru_maxrss after the build - ru_maxrss after
the imports) / n_synapses``: what the build added to the process's
peak, per synapse. The tables rest at 12 B/synapse and ``connect``
streams them at 13-20 (DESIGN.md, "Build"), so CI holds ``Brunel 2.0``
under 24; the whole-array build this replaced read about 29 there, the
freed temporaries of one projection being reused by the next. A
constant table (``weight_std=0``) stores one weight and rests at 4, so
CI holds ``Potjans-Diesmann 2.0`` (all constant; reads 5.2) under 8.

The second form builds the ``brunel-stdp`` benchmark spec
(``bench.workloads.brunel_stdp_spec(0)``) in a fresh child, runs one
step and reports what that step added to ``ru_maxrss``, per plastic
synapse: the first step compiles the rule's ``SynapseIndex``, which
rests at 4 B/synapse and is built a row block at a time (DESIGN.md,
"Lazy plasticity"). CI holds it under 10; it reads about 8, about 12
with the index's own copies of targets and sources, and about 20 with
a whole-table decode and row expansion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

BUILD = """
import json, resource, sys
from repro.workloads import build_workload

def peak_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

imported = peak_bytes()
network = build_workload(sys.argv[1], scale=float(sys.argv[2]), seed=0)
print(json.dumps({"n_synapses": network.n_synapses,
                  "bytes": peak_bytes() - imported}))
"""

FIRST_STEP = """
import json, resource
from bench.workloads import brunel_stdp_spec
from repro.frontend import build_simulation

def peak_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

simulator, network = build_simulation(brunel_stdp_spec(0))
built = peak_bytes()
simulator.run(1)
print(json.dumps({
    "n_synapses": sum(rule.projection.n_synapses
                      for rule in network.plasticity_rules),
    "bytes": peak_bytes() - built,
}))
"""


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "brunel-stdp":
        child, args, what = FIRST_STEP, [], "brunel-stdp, first step"
    elif len(argv) == 3:
        child, args, what = BUILD, argv[:2], f"{argv[0]} at scale {argv[1]}, build"
    else:
        sys.exit("usage: build_peak.py WORKLOAD SCALE LIMIT | brunel-stdp LIMIT")
    limit = float(argv[-1])
    # This process stays a bare interpreter: a child's ``ru_maxrss``
    # starts at its spawner's (see ``bench/child.py``).
    # ``src`` for ``repro``, the root for ``bench.workloads``.
    path = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    report = json.loads(subprocess.run(
        [sys.executable, "-c", child, *args],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout)
    per_synapse = report["bytes"] / report["n_synapses"]
    print(
        f"{what}: {per_synapse:.1f} B/synapse over {report['n_synapses']:,} "
        f"synapses (limit {limit:g})"
    )
    return 0 if per_synapse <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
