"""The neuron-model zoo: every Table III model on Flexon hardware.

Drives one neuron of each model with the same periodic input burst
pattern and renders ASCII spike rasters plus membrane summaries,
making the behavioural differences of the biologically common features
visible: LLIF's linear decay, DLIF's conductance kernels, Izhikevich /
AdEx adaptation (inter-spike intervals stretching), QIF/EIF's delayed
initiation, and the gsfa_grr model's refractory rate cap.

Run:  python examples/single_neuron_zoo.py
"""

import numpy as np

from repro.features import MODEL_FEATURES
from repro.hardware import FlexonCompiler, HardwareRuntime
from repro.models import create_model

DT = 1e-4
STEPS = 3_000  # 300 ms
BURST_PERIOD = 500  # a 20-step input burst every 50 ms
BURST_LEN = 200

#: CUB models integrate currents (need > theta); conductance models
#: integrate jumps.
DRIVE = {"LIF": 30.0, "LLIF": 30.0, "SLIF": 30.0}
DEFAULT_DRIVE = 1.2


def run_model(name: str):
    model = create_model(name)
    compiled = FlexonCompiler().compile(model, DT)
    runtime = HardwareRuntime(name, 1, compiled, DT, folded=False)
    drive = DRIVE.get(name, DEFAULT_DRIVE)
    n_types = model.parameters.n_synapse_types
    spikes = []
    for step in range(STEPS):
        in_burst = (step % BURST_PERIOD) < BURST_LEN
        weights = np.zeros((n_types, 1))
        if in_burst and step % 2 == 0:
            weights[0, 0] = drive
        if runtime.advance(weights, DT)[0]:
            spikes.append(step)
    return spikes, compiled


def raster(spikes, width: int = 100) -> str:
    bins = np.zeros(width, dtype=bool)
    for step in spikes:
        bins[min(width - 1, step * width // STEPS)] = True
    return "".join("|" if hit else "." for hit in bins)


def main() -> None:
    print(f"{STEPS * DT * 1e3:.0f} ms per row; bursts drive the first "
          f"{BURST_LEN * DT * 1e3:.0f} ms of every "
          f"{BURST_PERIOD * DT * 1e3:.0f} ms window\n")
    for name in MODEL_FEATURES:
        spikes, compiled = run_model(name)
        features = "+".join(f.value for f in MODEL_FEATURES[name])
        print(f"{name:22s} [{features}]")
        print(f"  {raster(spikes)}  {len(spikes)} spikes, "
              f"{compiled.program.n_signals} folded signals")
        if len(spikes) >= 3:
            intervals = np.diff(spikes)
            print(f"  first ISI {intervals[0]} steps, "
                  f"last ISI {intervals[-1]} steps")
        print()


if __name__ == "__main__":
    main()
