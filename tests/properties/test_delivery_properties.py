"""Property tests: spike delivery is *exactly* a per-synapse loop.

``Projection.synapses_of`` + ``DelayRing.enqueue`` promise to accumulate
arrivals one at a time in the contract order — projections in network order, fired
neurons ascending, CSR synapse order within a neuron. The reference is
``tests/oracles/delivery.py``, that sentence as three nested Python
loops; every comparison is ``==`` on float64, not ``allclose``, with
weights spanning enough magnitudes that any other summation order shows
in the last bits. A constant table (one broadcast weight, what
``connect`` builds at ``weight_std=0``) is held to the same loop and to
its own materialised twin.
"""

import copy
import os
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network import Network, PoissonStimulus, Projection, Simulator, connect
from repro.network.backends import ReferenceBackend
from repro.reliability.checkpoint import Checkpoint
from repro.routing import DelayRing, SpikeRouter
from tests.oracles.delivery import DeliveryLoop, csr_records

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "reliability", "fixtures",
    "pre_flat_ring.ckpt",
)

_weight = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-6, 1e-6, allow_nan=False),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0]),
)


def _population(name, n, n_synapse_types):
    # Projection and DelayRing read only these three attributes; a
    # stand-in reaches sizes (0) and type counts (1, 3) that no model
    # in the registry has.
    return SimpleNamespace(name=name, n=n, n_synapse_types=n_synapse_types)


@st.composite
def _scenarios(draw):
    n_types = draw(st.integers(1, 3))
    pre_n = draw(st.integers(0, 5))
    post_n = draw(st.integers(0, 4))
    min_delay = draw(st.integers(1, 3))
    max_delay = min_delay + draw(st.integers(0, 3))
    synapse = st.tuples(
        st.integers(0, max(pre_n - 1, 0)),
        st.integers(0, max(post_n - 1, 0)),
        _weight,
        st.integers(min_delay, max_delay),
    )
    size = 12 if pre_n and post_n else 0
    projections = draw(st.lists(
        st.tuples(
            st.integers(0, n_types - 1),
            st.lists(synapse, max_size=size),
            st.booleans(),  # present pre_idx sorted, as connect() does
        ),
        min_size=1, max_size=3,
    ))
    depth = max_delay + 1
    n_steps = draw(st.integers(1, 3 * depth))
    fired = draw(st.lists(
        st.lists(
            st.sets(st.integers(0, max(pre_n - 1, 0)), max_size=pre_n),
            min_size=len(projections), max_size=len(projections),
        ),
        min_size=n_steps, max_size=n_steps,
    ))
    stimulus = draw(st.lists(
        st.lists(
            st.tuples(st.integers(0, n_types - 1),
                      st.integers(0, max(post_n - 1, 0)), _weight),
            max_size=2 if post_n else 0,
        ),
        min_size=n_steps, max_size=n_steps,
    ))
    return SimpleNamespace(
        n_types=n_types, pre_n=pre_n, post_n=post_n, min_delay=min_delay,
        max_delay=max_delay, depth=depth, projections=projections,
        n_steps=n_steps, fired=fired, stimulus=stimulus,
        rotations=draw(st.integers(0, 2 * depth)),
        snapshot_at=draw(st.integers(0, n_steps - 1)),
    )


def _build(scenario):
    """``(projections, per-projection CSR-ordered synapse records)``."""
    pre = _population("pre", scenario.pre_n, 1)
    post = _population("post", scenario.post_n, scenario.n_types)
    projections, records = [], []
    for syn_type, synapses, presorted in scenario.projections:
        # CSR order is a stable sort by presynaptic neuron.
        ordered = sorted(synapses, key=lambda synapse: synapse[0])
        given_order = ordered if presorted else synapses
        columns = list(zip(*given_order)) or [(), (), (), ()]
        projections.append(Projection(
            pre, post,
            np.array(columns[0], dtype=np.int64),
            np.array(columns[1], dtype=np.int64),
            np.array(columns[2], dtype=np.float64),
            np.array(columns[3], dtype=np.int64),
            syn_type,
        ))
        records.append(ordered)
    return projections, records


def _loop(scenario, records):
    return DeliveryLoop(
        [(syn_type, ordered) for (syn_type, _, _), ordered
         in zip(scenario.projections, records)],
        scenario.n_steps, scenario.depth, scenario.n_types, scenario.post_n,
    )


def _fresh_ring(scenario):
    return DelayRing(scenario.post_n, scenario.n_types, scenario.max_delay)


def _rotated_ring(scenario, projections):
    """A ring whose head sits ``rotations`` steps in, bound once."""
    ring = _fresh_ring(scenario)
    SpikeRouter({"post": ring}).bind(projections)
    for _ in range(scenario.rotations):
        ring.rotate()
    return ring


def _ahead(ring):
    """The ring's next ``depth`` buckets, in delivery order, read from
    its (wrapped) snapshot."""
    payload = ring.snapshot()
    return np.roll(payload["ring"], -payload["head"], axis=0)


def _inject(ring, events):
    for syn_type, post, weight in events:
        ring.enqueue_now(np.array([post]), np.array([weight]), syn_type)


def _gather(projection, fired):
    return projection.synapses_of(np.array(sorted(fired), dtype=np.int64))


@given(_scenarios())
@settings(max_examples=300, deadline=None)
def test_delivery_equals_the_per_synapse_loop(scenario):
    projections, records = _build(scenario)
    loop = _loop(scenario, records)
    rings = [_rotated_ring(scenario, projections)]
    depth = scenario.depth
    for step in range(scenario.n_steps):
        if step == scenario.snapshot_at:
            # A snapshot taken at any head carries the wrapped layout
            # checkpoints always had, and restores into a fresh ring
            # that then replays identically.
            payload = rings[0].snapshot()
            head = payload["head"]
            assert head == (scenario.rotations + step) % depth
            for ahead in range(depth):
                assert np.array_equal(
                    payload["ring"][(head + ahead) % depth],
                    loop.dense[step + ahead],
                )
            rings.append(_fresh_ring(scenario))
            rings[1].restore(payload)
        loop.inject(step, scenario.stimulus[step])
        for ring in rings:
            _inject(ring, scenario.stimulus[step])
            assert np.array_equal(ring.current(), loop.dense[step])
            for projection, fired in zip(projections, scenario.fired[step]):
                ring.enqueue(*_gather(projection, fired), projection.syn_type)
        loop.deliver(step, scenario.fired[step])
        for ring in rings:
            assert np.array_equal(_ahead(ring), loop.dense[step:step + depth])
            assert ring.enqueued_events == loop.arrivals
            assert type(ring.enqueued_events) is int
            ring.rotate()


@st.composite
def _constant_tables(draw):
    # No synapses (p = 0), exactly one (1 x 1, p = 1) or many, per
    # projection; every projection into one ring of 1-3 synapse types.
    n_types = draw(st.integers(1, 3))
    size = draw(st.sampled_from(["none", "one", "many"]))
    pre_n, post_n = (1, 1) if size == "one" else (
        draw(st.integers(1, 6)), draw(st.integers(1, 5))
    )
    pre = _population("pre", pre_n, 1)
    post = _population("post", post_n, n_types)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probabilities = {"none": [0.0], "one": [1.0], "many": [0.4, 1.0]}[size]
    projections, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        weights.append(draw(_weight))
        projections.append(connect(
            pre, post,
            probability=draw(st.sampled_from(probabilities)),
            weight=weights[-1],
            delay_steps=draw(st.integers(1, 3)),
            delay_jitter=draw(st.integers(0, 3)),
            syn_type=draw(st.integers(0, n_types - 1)),
            rng=rng,
        ))
    depth = max(projection.max_delay for projection in projections) + 1
    n_steps = draw(st.integers(depth, 3 * depth))  # crosses a compaction
    fired = draw(st.lists(
        st.lists(
            st.sets(st.integers(0, pre_n - 1), max_size=pre_n),
            min_size=len(projections), max_size=len(projections),
        ),
        min_size=n_steps, max_size=n_steps,
    ))
    return SimpleNamespace(
        n_types=n_types, post_n=post_n, projections=projections,
        weights=weights, depth=depth, n_steps=n_steps, fired=fired,
    )


@given(_constant_tables())
@settings(max_examples=150, deadline=None)
def test_a_constant_table_delivers_like_the_loop_and_its_twin(case):
    twins = []
    for projection, weight in zip(case.projections, case.weights):
        weights = projection.weights
        assert weights.strides == (0,) and not weights.flags.writeable
        assert weights.shape == (projection.n_synapses,)
        expected = np.full(projection.n_synapses, weight, dtype=np.float64)
        assert np.asarray(weights).tobytes() == expected.tobytes()
        # The same projection with its weight table materialised.
        twin = copy.copy(projection)
        twin.weights = np.array(weights)
        twins.append(twin)
    records = [(p.syn_type, csr_records(p)) for p in case.projections]
    depth = case.depth
    for rotations in range(depth):  # every head offset
        rings = []
        for tables in (case.projections, twins):
            ring = DelayRing(case.post_n, case.n_types, depth - 1)
            SpikeRouter({"post": ring}).bind(tables)
            for _ in range(rotations):
                ring.rotate()
            rings.append(ring)
        loop = DeliveryLoop(
            records, case.n_steps, depth, case.n_types, case.post_n
        )
        for step in range(case.n_steps):
            for ring, tables in zip(rings, (case.projections, twins)):
                for projection, fired in zip(tables, case.fired[step]):
                    ring.enqueue(*_gather(projection, fired), projection.syn_type)
            loop.deliver(step, case.fired[step])
            constant, materialised = (_ahead(ring) for ring in rings)
            assert constant.tobytes() == materialised.tobytes()
            assert np.array_equal(constant, loop.dense[step:step + depth])
            enqueued = [ring.enqueued_events for ring in rings]
            assert enqueued == [loop.arrivals] * 2
            for ring in rings:
                ring.rotate()


def _pre_change_network():
    rng = np.random.default_rng(11)
    net = Network("pre-change")
    exc = net.add_population("exc", 30, "DLIF")
    net.add_population("inh", 8, "DLIF")
    net.connect("exc", "exc", probability=0.2, weight=0.05, syn_type=0,
                rng=rng, delay_steps=2, delay_jitter=5)
    net.connect("exc", "inh", probability=0.3, weight=0.05, syn_type=0,
                rng=rng, delay_steps=1, delay_jitter=2)
    net.connect("inh", "exc", probability=0.3, weight=0.2, syn_type=1,
                rng=rng, delay_steps=3)
    net.add_stimulus(PoissonStimulus(exc, rate_hz=900.0, weight=0.12,
                                     dt=1e-4, n_sources=10))
    return net


def test_checkpoint_written_before_the_flat_ring_still_resumes():
    # fixtures/pre_flat_ring.ckpt holds step 151 of this network (seed
    # 5, spikes included), a committed file rather than one captured by
    # the test. Its payload was captured at checkpoint version 3 (the
    # stimulus seed replaced the bit-generator state) and converted to
    # version 4 (JSON header plus named arrays) as is: every array and
    # key kept, the signature gained ``"spec": null``.
    # What it still pins: the *wrapped* ``(depth, types, n)`` ring
    # payload with heads 7 and 3 and deliveries in flight — the layout
    # checkpoints have carried since before the ring was unwrapped —
    # restores into the unwrapped ring and resumes to the digest of an
    # uninterrupted 301-step run. What it no longer can: that a stream
    # drawn by an earlier commit continues (old literals: 5 in flight,
    # 176 spikes, digest 30975c65...).
    checkpoint = Checkpoint.load(FIXTURE)
    simulator = Simulator(_pre_change_network(), ReferenceBackend(), seed=5)
    # The payload is an older-format one: it still carries the event
    # counts (2 deliveries in flight) and ``min_delay`` keys that a
    # restore ignores.
    assert all(
        {"counts", "min_delay"} <= set(payload)
        for payload in checkpoint.queues.values()
    )
    assert sum(int(p["counts"].sum()) for p in checkpoint.queues.values()) == 2
    checkpoint.restore(simulator)
    assert {
        name: ring.snapshot()["head"]
        for name, ring in simulator.router.rings.items()
    } == {"exc": 7, "inh": 3}
    # Re-capturing reproduces the old payload array for array.
    for name, ring in simulator.router.rings.items():
        for key, value in ring.snapshot().items():
            assert np.array_equal(value, checkpoint.queues[name][key]), key
    result = simulator.run(150, spikes=checkpoint.seed_recorder())
    assert result.spikes.total_spikes() == 178
    assert result.spikes.digest() == (
        "d675c3d4ac4efc77df6e5199d501d60eb7763868909c7b0ce71129e1c93d0a4e"
    )
