#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``.

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric prints both medians, the
relative difference of B against A (positive = worse, whatever the
metric's direction) and the bound BENCHMARK.json fixes for it. Exits 1
if any difference exceeds its bound or any workload's failed share
rose, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if better == "lower" else -change


def failed_share(result: dict) -> float:
    return result["failed"] / max(1, result["attempted"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json",
              encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle)["workloads"])
    before, after = documents
    regressions = 0
    print(f"{'workload':18s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name in before:
        if name not in after:
            print(f"{name:18s} missing from {argv[1]}")
            regressions += 1
            continue
        for entry in declared:
            a = before[name]["metrics"].get(entry["name"], {}).get("value")
            b = after[name]["metrics"].get(entry["name"], {}).get("value")
            if a is None or b is None:
                print(f"{name:18s} {entry['name']:12s} not measured")
                regressions += 1
                continue
            worse = worsening(a, b, entry["better"])
            flag = "  REGRESSION" if worse > entry["bound"] else ""
            regressions += bool(flag)
            print(f"{name:18s} {entry['name']:12s} {a:12.5g} {b:12.5g} "
                  f"{worse:+9.1%} {entry['bound']:6.0%}{flag}")
        share_a, share_b = failed_share(before[name]), failed_share(after[name])
        if share_b > share_a:
            print(f"{name:18s} failed share rose {share_a:.1%} -> "
                  f"{share_b:.1%}  REGRESSION")
            regressions += 1
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
