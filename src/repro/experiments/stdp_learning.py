"""STDP pattern learning with neuron computation on folded Flexon.

The paper motivates SNNs with unsupervised learning by
spike-timing-dependent plasticity, and its system split keeps synapse
calculation (where STDP lives) on the host while Flexon runs the
neurons. This artefact trains that split:

* 60 input channels; channels 0-19 carry a *pattern* (they burst
  together every 30 ms), channels 20-59 fire independent Poisson noise
  at a matched mean rate;
* one readout population of LIF neurons on the folded-Flexon backend
  receives every channel through plastic synapses;
* pair STDP potentiates the pattern channels and depresses the noise
  channels, so the readout becomes selective to the pattern.

``examples/stdp_pattern_learning.py`` trains the same network longer.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.common import format_table
from repro.hardware import FoldedFlexonBackend
from repro.network import Network, PatternStimulus, PoissonStimulus, Simulator
from repro.plasticity import PairSTDP

DT = 1e-4
N_PATTERN = 20
N_NOISE = 40
N_INPUT = N_PATTERN + N_NOISE
SEED = 21
TRAIN_STEPS = 15_000  # 1.5 s


def build() -> tuple:
    """``(network, plastic projection, rule)`` of the learning task."""
    net = Network("stdp-learning")
    inputs = net.add_population("inputs", N_INPUT, "LIF")
    net.add_population("readout", 4, "LIF")
    projection = net.connect(
        "inputs", "readout", probability=1.0, weight=4.0, delay_steps=1
    )
    # The pattern: channels 0..19 burst together every 300 steps.
    pattern_channels = list(range(N_PATTERN))
    net.add_stimulus(
        PatternStimulus(
            inputs,
            {0: pattern_channels, 2: pattern_channels},
            weight=300.0,
            period=300,
        )
    )
    # Matched-rate independent noise on channels 20..59 (two pattern
    # events per 300 steps ~ 66 Hz equivalent drive).
    net.add_stimulus(
        PoissonStimulus(
            inputs,
            rate_hz=66.0,
            weight=300.0,
            dt=DT,
            neuron_slice=slice(N_PATTERN, N_INPUT),
        )
    )
    rule = PairSTDP(
        a_plus=0.10, a_minus=0.055, tau_plus=10e-3, tau_minus=30e-3,
        w_min=0.0, w_max=12.0,
    )
    net.add_plasticity(projection, rule)
    return net, projection, rule


def channel_means(projection) -> Tuple[float, float]:
    """Mean weight of the pattern channels and of the noise channels."""
    pre_of = projection.pre_of_synapses()
    pattern = float(projection.weights[pre_of < N_PATTERN].mean())
    noise = float(projection.weights[pre_of >= N_PATTERN].mean())
    return pattern, noise


def run() -> Tuple[float, float]:
    """Train; the pattern and noise mean weights after."""
    net, projection, _ = build()
    Simulator(net, FoldedFlexonBackend(DT), dt=DT, seed=SEED).run(TRAIN_STEPS)
    return channel_means(projection)


def render(weights: Tuple[float, float]) -> str:
    """The learned weights and the readout's selectivity."""
    pattern_w, noise_w = weights
    rows = [
        ("pattern channels (mean weight)", f"{pattern_w:.2f}"),
        ("noise channels (mean weight)", f"{noise_w:.2f}"),
        ("selectivity", f"{pattern_w / max(noise_w, 1e-9):.1f}x"),
        ("training duration", f"{TRAIN_STEPS * DT:.1f} s biological"),
    ]
    return format_table(["Metric", "Value"], rows)
