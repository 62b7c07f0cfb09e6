"""Brunel's network states, measured with the analysis toolkit.

Brunel (2000) — the Table I workload — showed that a sparse E/I network
of identical neurons visits qualitatively different dynamical states as
the inhibition/excitation ratio ``g`` and the external drive change:
synchronous-regular (SR) when excitation dominates, and
asynchronous-irregular (AI) when inhibition dominates. This example
sweeps ``g`` on the reproduced workload topology, runs each network on
the baseline-Flexon backend, and reports the regime statistics
(rate, ISI coefficient of variation, population synchrony).

Run:  python examples/brunel_regimes.py
"""

from repro.analysis import cv_isi, population_rate_hz, synchrony_index
from repro.assembly import DT
from repro.experiments.common import format_table
from repro.frontend import build_network
from repro.hardware import FlexonBackend
from repro.network import Simulator
from repro.workloads.brunel import SPEC
from repro.workloads.builders import ei_spec

STEPS = 3000
SCALE = 0.05


def run_regime(g: float):
    """Simulate the Brunel topology at inhibition ratio g."""
    exc_weight = 0.4
    spec = ei_spec(
        SPEC,
        SCALE,
        exc_weight=exc_weight,
        inh_weight=-g * exc_weight,
        stimulus_rate_hz=100.0,
        stimulus_weight=exc_weight,
        n_stimulus_sources=5,
    )
    network = build_network({**spec, "seed": 1, "dt": DT})
    result = Simulator(network, FlexonBackend(DT), dt=DT, seed=2).run(STEPS)
    record = result.spikes.result("exc")
    n = network.populations["exc"].n
    return (
        population_rate_hz(record, n, STEPS, DT),
        cv_isi(record),
        synchrony_index(record, n, STEPS),
    )


def classify(rate: float, cv: float, chi: float) -> str:
    if rate < 1.0:
        return "quiescent"
    irregular = cv > 0.5
    synchronous = chi > 0.3
    return {
        (False, False): "asynchronous-regular (AR)",
        (False, True): "synchronous-regular (SR)",
        (True, False): "asynchronous-irregular (AI)",
        (True, True): "synchronous-irregular (SI)",
    }[(irregular, synchronous)]


def main() -> None:
    print(f"Brunel topology at scale {SCALE} "
          f"({STEPS * DT * 1e3:.0f} ms per point), neurons on Flexon\n")
    rows = []
    for g in (1.0, 3.0, 5.0, 8.0):
        rate, cv, chi = run_regime(g)
        rows.append(
            (
                f"g = {g:.0f}",
                f"{rate:.1f}",
                f"{cv:.2f}" if cv == cv else "n/a",
                f"{chi:.3f}" if chi == chi else "n/a",
                classify(rate, cv, chi),
            )
        )
    print(
        format_table(
            ["Inhibition ratio", "Rate [Hz]", "ISI CV", "Synchrony", "Regime"],
            rows,
        )
    )
    print("\nStrong inhibition (g >= 4) drives the network into Brunel's "
          "asynchronous-irregular\nstate — the regime the Table I row "
          "simulates — with Poisson-like ISI statistics.")


if __name__ == "__main__":
    main()
