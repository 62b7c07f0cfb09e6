#!/usr/bin/env python3
"""Fail when building a workload's network peaks too far above its tables.

    python3 benchmarks/build_peak.py WORKLOAD SCALE MAX_BYTES_PER_SYNAPSE

Builds the registry workload in a fresh child interpreter and reports
``(ru_maxrss after the build - ru_maxrss after the imports) /
n_synapses``: what the build added to the process's peak, per synapse.
The tables rest at 12 B/synapse and ``connect`` streams them at 13-20
(DESIGN.md, "Build"), so CI holds ``Brunel 2.0`` under 24; the
whole-array build this replaced read about 29 there, the freed
temporaries of one projection being reused by the next. A constant
table (``weight_std=0``) stores one weight and rests at 4, so CI holds
``Potjans-Diesmann 2.0`` (all constant; reads 5.2) under 8.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

CHILD = """
import json, resource, sys
from repro.workloads import build_workload

def peak_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

imported = peak_bytes()
network = build_workload(sys.argv[1], scale=float(sys.argv[2]), seed=0)
print(json.dumps({"n_synapses": network.n_synapses,
                  "build_bytes": peak_bytes() - imported}))
"""


def main(argv) -> int:
    workload, scale, limit = argv[0], argv[1], float(argv[2])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    # This process stays a bare interpreter: a child's ``ru_maxrss``
    # starts at its spawner's (see ``bench/child.py``).
    child = subprocess.run(
        [sys.executable, "-c", CHILD, workload, scale],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        stdout=subprocess.PIPE, text=True, check=True,
    )
    report = json.loads(child.stdout)
    per_synapse = report["build_bytes"] / report["n_synapses"]
    print(
        f"{workload} at scale {scale}: {report['n_synapses']:,} synapses, "
        f"build peak {per_synapse:.1f} B/synapse (limit {limit:g})"
    )
    return 0 if per_synapse <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
