"""Property test: checkpoint → restore → run ≡ uninterrupted run.

For random small networks, killing a simulation at a random step and
resuming a fresh simulator from the checkpoint must reproduce the
uninterrupted run exactly — spike trains and final state, bit for bit —
on the compiled-engine, dict-state-solver, and Flexon hardware
backends. The folded backend binds its step plan to register-file row
views at construction, so it additionally pins that a restore writes
through them: cycle counts and saturation accounting match too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fixedpoint import SaturationStats
from repro.hardware.backend import FlexonBackend, FoldedFlexonBackend
from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PoissonStimulus
from repro.reliability import Checkpoint

DT = 1e-4
STEPS = 60

BACKENDS = {
    "reference": lambda: ReferenceBackend("Euler"),
    "engine-off": lambda: ReferenceBackend("Euler", use_engine=False),
    "flexon": lambda: FlexonBackend(DT),
    "folded": lambda: FoldedFlexonBackend(DT),
}


def _random_network(seed):
    rng = np.random.default_rng(seed)
    network = Network(f"prop-{seed}")
    n = int(rng.integers(5, 25))
    pop = network.add_population("p", n, "DLIF")
    network.connect(
        "p", "p",
        probability=float(rng.uniform(0.05, 0.4)),
        weight=float(rng.uniform(0.02, 0.1)),
        syn_type=0,
        rng=rng,
        delay_steps=1,
        delay_jitter=int(rng.integers(0, 4)),
    )
    network.add_stimulus(
        PoissonStimulus(
            pop,
            rate_hz=float(rng.uniform(200.0, 1500.0)),
            weight=float(rng.uniform(0.03, 0.12)),
            dt=DT,
            n_sources=int(rng.integers(1, 6)),
        )
    )
    return network


def _final_state(simulator):
    return {
        name: {k: v.copy() for k, v in runtime.state().items()}
        for name, runtime in simulator.backend.runtimes.items()
    }


@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    seed=st.integers(min_value=0, max_value=2**31),
    kill_at=st.integers(min_value=1, max_value=STEPS - 1),
)
@settings(max_examples=20, deadline=None)
def test_resumed_run_is_bit_identical(backend, seed, kill_at):
    make = BACKENDS[backend]

    whole = Simulator(_random_network(seed), make(), dt=DT, seed=seed + 1)
    whole_result = whole.run(STEPS)
    whole_spikes = whole_result.spikes.result("p").spike_pairs()
    whole_state = _final_state(whole)

    part = Simulator(_random_network(seed), make(), dt=DT, seed=seed + 1)
    first = part.run(kill_at)
    checkpoint = Checkpoint.capture(part, spikes=first.spikes)
    del part  # the crash

    resumed = Simulator(_random_network(seed), make(), dt=DT, seed=seed + 1)
    checkpoint.restore(resumed)
    result = resumed.run(
        STEPS - kill_at, spikes=checkpoint.seed_recorder()
    )

    assert result.spikes.result("p").spike_pairs() == whole_spikes
    assert result.spikes.digest() == whole_result.spikes.digest()
    resumed_state = _final_state(resumed)
    for name, variables in whole_state.items():
        for variable, values in variables.items():
            assert np.array_equal(values, resumed_state[name][variable])

    # Hardware extras: the interrupted halves add up to the whole run.
    whole_runtime = whole.backend.runtime("p")
    if hasattr(whole_runtime, "saturation_stats"):
        stitched = SaturationStats()
        stitched.merge(first.diagnostics.saturation["p"])
        stitched.merge(resumed.backend.runtime("p").saturation_stats)
        assert stitched == whole_runtime.saturation_stats
    if backend == "folded":
        assert (
            resumed.backend.runtime("p").neuron.total_cycles
            == whole_runtime.neuron.total_cycles
            == STEPS * whole_runtime.n * whole_runtime.cycles_per_neuron
        )
