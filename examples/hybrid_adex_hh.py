"""Section VII-A: hybrid simulation of a mixed AdEx + HH network.

Hodgkin-Huxley needs divisions, which Flexon's data paths lack, so HH
populations cannot be compiled. The hybrid backend keeps them on the
general-purpose (reference) path while offloading every supported
population to the digital-neuron array — "we can still accelerate SNN
simulations by offloading the supported neuron models to Flexon."

This example builds a cortical AdEx network innervating a small HH
population, shows the compiler rejecting HH with actionable guidance,
runs the hybrid simulation, and reports the offloaded fraction.

Run:  python examples/hybrid_adex_hh.py
"""

import numpy as np

from repro.errors import CompilationError
from repro.hardware import FlexonCompiler, HybridBackend
from repro.models import HodgkinHuxley
from repro.network import Network, PoissonStimulus, Simulator

DT = 1e-4
STEPS = 3_000


def build_mixed_network() -> Network:
    rng = np.random.default_rng(11)
    net = Network("adex+hh")
    adex = net.add_population("cortex", 80, "AdEx")
    net.add_population("hh_cells", 8, "HH")
    net.connect("cortex", "cortex", probability=0.1, weight=0.08, rng=rng)
    # AdEx spikes drive the HH cells with strong current kicks (HH works
    # in its native uA/cm^2 units).
    net.connect("cortex", "hh_cells", probability=0.4, weight=4.0, rng=rng)
    net.add_stimulus(
        PoissonStimulus(adex, rate_hz=700.0, weight=0.15, dt=DT, n_sources=10)
    )
    return net


def main() -> None:
    compiler = FlexonCompiler()
    print("Trying to compile Hodgkin-Huxley for Flexon...")
    try:
        compiler.compile(HodgkinHuxley(), DT)
    except CompilationError as error:
        print(f"  CompilationError: {error}\n")

    network = build_mixed_network()
    backend = HybridBackend(DT)
    simulator = Simulator(network, backend, dt=DT, seed=12)
    result = simulator.run(STEPS)

    print(f"offloaded populations: "
          f"{[n for n, on in backend.offloaded.items() if on]}")
    print(f"software populations:  "
          f"{[n for n, on in backend.offloaded.items() if not on]}")
    print(f"neurons on the digital-neuron array: "
          f"{100 * backend.offloaded_fraction():.0f}%\n")

    duration = STEPS * DT
    for name, population in network.populations.items():
        record = result.spikes.result(name)
        rate = record.n_spikes / population.n / duration
        print(f"{name:10s}: {record.n_spikes:6d} spikes ({rate:6.1f} Hz)")

    hh_state = backend.state_of("hh_cells")
    print(f"\nHH gates after {duration * 1e3:.0f} ms: "
          f"m={hh_state['m'].mean():.3f} h={hh_state['h'].mean():.3f} "
          f"n={hh_state['n'].mean():.3f}")


if __name__ == "__main__":
    main()
