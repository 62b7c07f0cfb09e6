"""Property tests: sharded execution is bit-identical to single-process.

The sharding layer's whole contract is one sentence — for any
partition count, any seed, and any run length, the merged sharded
spike train equals the single-process simulator's bit for bit.
Hypothesis sweeps that space on a small fixed network through
:func:`simulate_sharded`'s window/exchange/replay cycle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PoissonStimulus
from repro.sharding import simulate_sharded

DT = 1e-4

_single_cache = {}


def _network(seed):
    rng = np.random.default_rng(seed + 1000)
    network = Network("prop-net")
    exc = network.add_population("exc", 30, "DLIF")
    network.add_population("inh", 9, "DLIF")
    network.connect(
        "exc", "exc", probability=0.3, weight=0.05, syn_type=0, rng=rng,
        delay_steps=2, delay_jitter=3,
    )
    network.connect(
        "inh", "exc", probability=0.3, weight=0.18, syn_type=1, rng=rng,
        delay_steps=3,
    )
    network.connect(
        "exc", "inh", probability=0.3, weight=0.08, syn_type=0, rng=rng,
        delay_steps=2,
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=900.0, weight=0.10, dt=DT, n_sources=6)
    )
    return network


def _single_digest(seed, steps):
    key = (seed, steps)
    if key not in _single_cache:
        simulator = Simulator(
            _network(seed), ReferenceBackend(), dt=DT, seed=seed
        )
        _single_cache[key] = simulator.run(steps).spikes.digest()
    return _single_cache[key]


@settings(max_examples=12, deadline=None)
@given(
    n_shards=st.integers(1, 6),
    seed=st.integers(0, 3),
    steps=st.integers(20, 90),
)
def test_sharded_digest_equals_single_process(n_shards, seed, steps):
    result = simulate_sharded(
        _network(seed), n_shards, steps, dt=DT, seed=seed
    )
    assert result.digest() == _single_digest(seed, steps)
