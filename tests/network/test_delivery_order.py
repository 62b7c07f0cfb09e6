"""The accumulation order of a whole ``Simulator.run``, step by step.

Two same-type projections converge on one population, and the pre
neurons that fire in a step share targets, so a ring cell sums several
arrivals per step in an order that shows in its last bits. Every step's
input — read after the stimulus phase, as the neuron phase consumes it
— must equal ``tests/oracles/delivery.py``'s ``DeliveryLoop``
(projections in network order, fired neurons ascending, CSR order
within a neuron, stimuli after synaptic arrivals) with ``==`` on
float64. Reversing the synapse phase's projection loop, or walking its
fired rows descending, fails here.

A second network adds the gather's and the ring's short cuts: a
constant-weight projection (its weight a scalar) whose pre population
often fires one neuron a step (that row returned as a view), into a
ring that compacts every ``depth`` steps. A wrong row, or a compaction
that clears one bucket too many or too few, fails its check.
"""

import numpy as np

from repro.engine.hooks import PhaseHook
from repro.network import Network, PatternStimulus, PoissonStimulus, Simulator
from repro.network.backends import ReferenceBackend
from tests.oracles.delivery import DeliveryLoop, csr_records

DT = 1e-4
STEPS = 120


def _network():
    rng = np.random.default_rng(17)
    network = Network("converging")
    for name, n in (("a", 60), ("b", 40)):
        pre = network.add_population(name, n, "DLIF")
        network.add_stimulus(PoissonStimulus(
            pre, rate_hz=2000.0, weight=0.2, dt=DT, n_sources=10
        ))
    post = network.add_population("post", 6, "DLIF")
    for name in ("a", "b"):
        # Dense, drawn weights, jittered delays: each post neuron hears
        # several fired rows of both projections in the same bucket.
        network.connect(
            name, "post", probability=0.8, weight=0.01, weight_std=0.02,
            delay_steps=1, delay_jitter=2, syn_type=0, rng=rng,
        )
    network.add_stimulus(PatternStimulus(post, {3: [0, 5, 5]}, 0.1, period=7))
    return network


class _InputAfterStimulus(PhaseHook):
    def __init__(self, ring):
        self.ring, self.inputs = ring, []

    def on_phase(self, phase, step, seconds, operations):
        if phase == "stimulus":
            self.inputs.append(self.ring.current().copy())


def _fired_per_step(spikes, name):
    record = spikes.result(name)
    fired = [set() for _ in range(STEPS)]
    for step, neuron in zip(record.steps.tolist(), record.neurons.tolist()):
        fired[step].add(neuron)
    return fired


def _sparse_network():
    """``_network``'s ``a`` plus ``c``, a few weakly driven neurons
    whose constant-weight projection reaches ``post`` 2..5 steps on."""
    rng = np.random.default_rng(23)
    network = Network("sparse")
    a = network.add_population("a", 60, "DLIF")
    network.add_stimulus(PoissonStimulus(
        a, rate_hz=2000.0, weight=0.2, dt=DT, n_sources=10
    ))
    c = network.add_population("c", 6, "DLIF")
    network.add_stimulus(PoissonStimulus(
        c, rate_hz=800.0, weight=0.2, dt=DT, n_sources=10
    ))
    post = network.add_population("post", 6, "DLIF")
    network.connect(
        "a", "post", probability=0.8, weight=0.01, weight_std=0.02,
        delay_steps=1, delay_jitter=2, syn_type=0, rng=rng,
    )
    network.connect(
        "c", "post", probability=0.9, weight=0.013, delay_steps=2,
        delay_jitter=3, syn_type=0, rng=rng,
    )
    network.add_stimulus(PatternStimulus(post, {3: [0, 5, 5]}, 0.1, period=7))
    return network


def _check_against_the_loop(network):
    """Run ``network``, compare every step's ``post`` input with the
    loop's; return each projection's fired sets and the ring depth."""
    simulator = Simulator(network, ReferenceBackend(), dt=DT, seed=3)
    ring = simulator.router.ring("post")
    hook = _InputAfterStimulus(ring)
    spikes = simulator.run(STEPS, hooks=[hook]).spikes

    post, projections = network.populations["post"], network.projections
    pattern = network.stimuli[-1]
    loop = DeliveryLoop(
        [(p.syn_type, csr_records(p)) for p in projections], STEPS,
        max(p.max_delay for p in projections) + 1,
        post.n_synapse_types, post.n,
    )
    fired = [_fired_per_step(spikes, p.pre.name) for p in projections]
    for step in range(STEPS):
        loop.inject(step, [
            (pattern.syn_type, int(neuron), pattern.weight)
            for neuron in pattern.generate(step)
        ])
        assert np.array_equal(hook.inputs[step], loop.dense[step]), step
        loop.deliver(step, [f[step] for f in fired])
    return fired, ring.depth


def test_every_step_input_equals_the_per_synapse_loop():
    fired, _ = _check_against_the_loop(_network())
    # The order is exercised: a quarter of the steps fire several rows
    # of both projections.
    busy = [min(len(f[step]) for f in fired) > 1 for step in range(STEPS)]
    assert sum(busy) > STEPS // 4


def test_one_row_constant_gathers_and_compaction_equal_the_loop():
    network = _sparse_network()
    constant = network.projections[1]
    assert constant.weights.strides == (0,)
    fired, depth = _check_against_the_loop(network)
    # Exercised: steps where one ``c`` neuron fires and its row arrives
    # (``post`` hears every row: each has synapses), and at least three
    # compactions of the ring.
    single = [len(fired[1][step]) == 1 for step in range(STEPS - depth)]
    assert sum(single) >= 5
    assert np.all(np.diff(constant.pre_ptr) > 0)
    assert STEPS // depth >= 3
