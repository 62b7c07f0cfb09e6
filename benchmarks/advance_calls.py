#!/usr/bin/env python3
"""Fail when a traced benchmark result makes too many kernel calls.

    python3 benchmarks/advance_calls.py RESULT.json WORKLOAD MAX_PER_STEP

``RESULT.json`` is what ``bench/run.py --workload WORKLOAD --trace 1
--out RESULT.json`` wrote. ``network.backends.advance_calls`` counts the
``RuntimeBackend.advance`` calls of the workload's timed steps; divided
by those steps it is the number of blocks the backend steps, which CI
holds at one per model (``muller-folded`` 1, ``vogels-solver`` 1,
``potjans-layered`` <= 2).
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    path, workload, limit = argv[0], argv[1], float(argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
    from bench.workloads import WORKLOADS

    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)["workloads"][workload]["metrics"]
    calls = metrics["network.backends.advance_calls"]["value"]
    per_step = calls / WORKLOADS[workload].steps
    print(f"{workload}: {per_step:g} advance calls per step (limit {limit:g})")
    return 0 if per_step <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
