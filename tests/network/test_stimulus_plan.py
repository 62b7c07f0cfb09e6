"""Tests of the compiled stimulus phase (``repro.network.stimulus``).

Three contracts: the sampler is *exactly* the inverse CDF of the
binomial (equal to ``np.searchsorted`` draw for draw, and distributed
as the exact pmf); a stimulus's stream is addressed by ``(step,
target)`` and by nothing else — not by how many steps are drawn at
once, how a run is cut into ``run`` calls, or what else shares the
network; and injection is one dense add per stimulus that books exactly
the events the phase reports.
"""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.hooks import PhaseHook
from repro.errors import ConfigurationError
from repro.models import create_model
from repro.network import (
    Network,
    PatternStimulus,
    PoissonStimulus,
    Population,
    Simulator,
)
from repro.network import stimulus as stimulus_module
from repro.network.backends import ReferenceBackend
from repro.network.stimulus import BLOCK_STEPS, BinomialSampler, StimulusPlan
from repro.reliability.checkpoint import Checkpoint
from repro.routing import DelayRing
from repro.workloads import build_workload, workload_names
from tests.conftest import stimulus_rows

DT = 1e-4


#: Every ``(n_sources, p)`` the ten registry workloads draw from.
REGISTRY_PARAMETERS = sorted({
    (stimulus.n_sources, stimulus.p_spike)
    for name in workload_names()
    for stimulus in build_workload(name, scale=0.02, seed=1).stimuli
})


def _sample(sampler, uniforms):
    out = np.empty(uniforms.size, dtype=sampler.dtype)
    sampler.sample(
        uniforms.copy(), np.empty(uniforms.size, dtype=np.intp), out
    )
    return out


class TestBinomialSampler:
    @pytest.mark.parametrize(
        "n_sources, p",
        REGISTRY_PARAMETERS
        + [(n, p) for n in (0, 1, 7, 1000) for p in (0.0, 0.3, 1.0)],
    )
    def test_equals_searchsorted_on_the_same_uniforms(self, n_sources, p):
        sampler = BinomialSampler(n_sources, p)
        uniforms = np.random.default_rng(n_sources).random(200_000)
        # Bin edges and the CDF values themselves are the boundary cases.
        edges = np.arange(stimulus_module.GUIDE_BINS) / stimulus_module.GUIDE_BINS
        uniforms = np.concatenate([
            uniforms, edges, np.nextafter(edges[1:], 0.0), sampler.cdf,
            np.nextafter(sampler.cdf, 0.0), [np.nextafter(1.0, 0.0)],
        ])
        counts = _sample(sampler, uniforms)
        assert np.array_equal(
            counts, np.searchsorted(sampler.cdf, uniforms, "right")
        )
        assert counts.max() <= n_sources
        if p == 0.0 or n_sources == 0:
            assert not counts.any()
        if p == 1.0:
            assert np.all(counts == n_sources)

    def test_registry_workloads_sample_into_one_byte(self):
        for n_sources, p in REGISTRY_PARAMETERS:
            assert BinomialSampler(n_sources, p).dtype == np.uint8

    @pytest.mark.parametrize("n_sources, p", [(20, 0.09), (5, 0.01), (25, 0.06)])
    def test_chi_square_against_the_exact_pmf(self, n_sources, p):
        draws = 1_000_000
        counts = _sample(
            BinomialSampler(n_sources, p), np.random.default_rng(7).random(draws)
        )
        expected = draws * np.array([
            math.comb(n_sources, k) * p**k * (1 - p) ** (n_sources - k)
            for k in range(n_sources + 1)
        ])
        observed = np.bincount(counts, minlength=n_sources + 1).astype(float)
        # Pool the upper tail into one cell that expects >= 5 draws.
        cells = int(np.nonzero(np.cumsum(expected[::-1])[::-1] >= 5.0)[0][-1])
        observed = np.append(observed[:cells], observed[cells:].sum())
        expected = np.append(expected[:cells], expected[cells:].sum())
        chi2 = ((observed - expected) ** 2 / expected).sum()
        # 99.99th percentile bound for `cells` degrees of freedom
        # (Wilson-Hilferty); a wrong table misses by thousands.
        z = 3.719
        bound = cells * (1 - 2 / (9 * cells) + z * math.sqrt(2 / (9 * cells))) ** 3
        assert chi2 < bound


def _stimulus_network(seed=0, **poisson):
    rng = np.random.default_rng(seed + 40)
    network = Network("stimulus-net")
    exc = network.add_population("exc", 37, "DLIF")
    inh = network.add_population("inh", 11, "DLIF")
    network.connect("exc", "exc", probability=0.3, weight=0.05, syn_type=0,
                    rng=rng, delay_steps=2, delay_jitter=3)
    network.connect("exc", "inh", probability=0.3, weight=0.08, syn_type=0,
                    rng=rng, delay_steps=2)
    network.connect("inh", "exc", probability=0.3, weight=0.18, syn_type=1,
                    rng=rng, delay_steps=3)
    poisson = {"rate_hz": 900.0, "weight": 0.1, "n_sources": 6, **poisson}
    network.add_stimulus(PoissonStimulus(exc, dt=DT, **poisson))
    network.add_stimulus(PoissonStimulus(
        inh, rate_hz=400.0, weight=0.05, dt=DT, n_sources=3,
        neuron_slice=slice(1, None, 3),
    ))
    network.add_stimulus(PatternStimulus(exc, {5: [0, 36, 36]}, 0.2, period=9))
    return network


def _digest(network, steps, seed=3):
    return Simulator(network, ReferenceBackend(), dt=DT, seed=seed).run(
        steps
    ).spikes.digest()


class TestStreamAddressing:
    def test_split_runs_equal_one_run(self):
        a, b = BLOCK_STEPS + 5, 2 * BLOCK_STEPS + 3  # not multiples of K
        whole = _digest(_stimulus_network(), a + b)
        simulator = Simulator(
            _stimulus_network(), ReferenceBackend(), dt=DT, seed=3
        )
        recorder = simulator.run(a).spikes
        assert simulator.run(b, spikes=recorder).spikes.digest() == whole

    def test_block_length_changes_no_digest(self, monkeypatch):
        network = _stimulus_network()
        expected = _digest(network, 150)
        for steps in (1, 2 * BLOCK_STEPS):
            monkeypatch.setattr(stimulus_module, "BLOCK_STEPS", steps)
            assert _digest(network, 150) == expected

    def test_draws_do_not_depend_on_the_chunk_size(self, monkeypatch):
        stimulus = _stimulus_network().stimuli[0]
        expected = stimulus_rows(stimulus, 40, seed=9)[0]
        monkeypatch.setattr(stimulus_module, "CHUNK_DRAWS", 50)
        rows, _, plan = stimulus_rows(stimulus, 40, seed=9)
        assert np.array_equal(rows, expected)
        # Whole blocks are drawn: 40 steps take three of them.
        assert plan.uniforms_drawn == 3 * BLOCK_STEPS * len(stimulus.targets)

    def test_two_simulators_share_one_network(self):
        network = _stimulus_network()
        alone = [_digest(network, 70, seed) for seed in (3, 4)]
        simulators = [
            Simulator(network, ReferenceBackend(), dt=DT, seed=seed)
            for seed in (3, 4)
        ]
        recorders = [simulator.run(0).spikes for simulator in simulators]
        for _ in range(10):  # alternate, seven steps at a time
            for simulator, recorder in zip(simulators, recorders):
                simulator.run(7, spikes=recorder)
        assert [recorder.digest() for recorder in recorders] == alone
        assert alone[0] != alone[1]

    def test_identical_stimuli_get_different_trains(self):
        pop = Population("p", 50, create_model("LIF"))
        ring = DelayRing(pop.n, pop.n_synapse_types, max_delay=1)
        trains = []
        for keep in (0, 1):  # inject twins, give only one of them weight
            twins = [
                PoissonStimulus(pop, 2000.0, float(i == keep), dt=DT)
                for i in range(2)
            ]
            plan = StimulusPlan(twins, {"p": ring}, seed=1)
            rows = []
            for step in range(20):
                plan.inject(step)
                rows.append(ring.current()[0].copy())
                ring.rotate()
            trains.append(np.array(rows))
        assert trains[0].any() and trains[1].any()
        assert not np.array_equal(trains[0], trains[1])
        # The first of the twins draws what it would draw alone.
        alone = PoissonStimulus(pop, 2000.0, 1.0, dt=DT)
        assert np.array_equal(trains[0], stimulus_rows(alone, 20, seed=1)[0])


class _RingEvents(PhaseHook):
    """Sums what the stimulus phase added to the rings' lifetime
    enqueue counts."""

    def __init__(self, simulator):
        self.rings = simulator.router.rings.values()
        self.before = self.added = 0

    def on_step_start(self, step):
        self.before = sum(ring.enqueued_events for ring in self.rings)

    def on_phase(self, phase, step, seconds, operations):
        if phase == "stimulus":
            now = sum(ring.enqueued_events for ring in self.rings)
            self.added += now - self.before


class TestInjection:
    def test_phase_operations_equal_booked_ring_events(self):
        simulator = Simulator(
            _stimulus_network(), ReferenceBackend(), dt=DT, seed=3
        )
        hook = _RingEvents(simulator)
        enqueued = sum(ring.enqueued_events for ring in hook.rings)
        result = simulator.run(60, hooks=[hook])
        assert result.stimulus_events == hook.added > 0
        assert type(result.stimulus_events) is int
        assert sum(ring.enqueued_events for ring in hook.rings) - enqueued == (
            result.stimulus_events + result.synaptic_events
        )

    def test_events_count_targets_not_source_spikes(self):
        pop = Population("p", 8, create_model("LIF"))
        stimulus = PoissonStimulus(pop, 1e6, 0.5, dt=DT, n_sources=3)
        ring = DelayRing(pop.n, pop.n_synapse_types, max_delay=1)
        plan = StimulusPlan([stimulus], {"p": ring}, seed=0)
        assert plan.inject(0) == 8 == ring.enqueued_events
        assert np.all(ring.current()[0] == 1.5)

    def test_dense_add_lands_after_synaptic_arrivals(self):
        pop = Population("p", 6, create_model("LIF"))
        stimulus = PoissonStimulus(
            pop, 1e6, 0.1, dt=DT, syn_type=1, neuron_slice=slice(1, 6, 2)
        )
        ring = DelayRing(pop.n, pop.n_synapse_types, max_delay=1)
        ring.enqueue_now(np.array([1, 2]), np.array([0.2, 0.7]), 1)
        StimulusPlan([stimulus], {"p": ring}, seed=0).inject(0)
        assert ring.current()[1].tolist() == [0.0, 0.2 + 0.1, 0.7, 0.1, 0.0, 0.1]
        assert not ring.current()[0].any()
        assert ring.enqueued_events == 5

    def test_pattern_duplicates_still_accumulate(self):
        pop = Population("p", 5, create_model("LIF"))
        stimulus = PatternStimulus(pop, {2: [4, 1, 4, 4]}, weight=0.25)
        rows = stimulus_rows(stimulus, 4, seed=0)[0]
        assert rows[2].tolist() == [0.0, 0.25, 0.0, 0.0, 0.75]
        assert not rows[[0, 1, 3]].any()

    def test_steady_state_step_allocates_under_one_kilobyte(self):
        network = build_workload("Potjans-Diesmann", scale=0.5, seed=1)
        simulator = Simulator(network, dt=DT, seed=2)
        plan, rotate = simulator.stimulus_plan, simulator.router.rotate_all
        for step in range(2):  # step 0 fills; step 1 warms the caches
            plan.inject(step)
            rotate()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for step in range(2, BLOCK_STEPS):
                assert plan.inject(step) > 1000
                rotate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline < 1024


class TestCheckpoint:
    @settings(max_examples=15, deadline=None)
    @given(
        kill_at=st.integers(1, 3 * BLOCK_STEPS + 5),
        seed=st.integers(0, 3),
        fresh_seed=st.integers(0, 99),
    )
    def test_resume_at_any_step_is_bit_identical(self, kill_at, seed, fresh_seed):
        steps = 4 * BLOCK_STEPS
        expected = _digest(_stimulus_network(seed), steps, seed)
        first = Simulator(
            _stimulus_network(seed), ReferenceBackend(), dt=DT, seed=seed
        )
        spikes = first.run(kill_at).spikes
        checkpoint = pickle.loads(
            pickle.dumps(Checkpoint.capture(first, spikes=spikes))
        )
        # The checkpoint's seed wins over the fresh simulator's.
        resumed = Simulator(
            _stimulus_network(seed), ReferenceBackend(), dt=DT, seed=fresh_seed
        )
        checkpoint.restore(resumed)
        result = resumed.run(steps - kill_at, spikes=checkpoint.seed_recorder())
        assert result.spikes.digest() == expected

    def test_checkpoint_carries_the_seed_and_no_generator_state(self, tmp_path):
        simulator = Simulator(
            _stimulus_network(), ReferenceBackend(), dt=DT, seed=12345
        )
        simulator.run(BLOCK_STEPS + 2)
        checkpoint = Checkpoint.capture(simulator)
        assert checkpoint.stimulus_seed == 12345
        path = tmp_path / "c.ckpt"
        checkpoint.save(str(path))
        data = path.read_bytes()
        for needle in (b"PCG64", b"bit_generator", b"has_uint32"):
            assert needle not in data


class TestValidation:
    POP = Population("p", 10, create_model("LIF"))

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"n_sources": -1}, "n_sources"),
            ({"n_sources": 2.5}, "n_sources"),
            ({"rate_hz": float("nan")}, "rate must be finite"),
            ({"rate_hz": float("inf")}, "rate must be finite"),
            ({"rate_hz": -1.0}, "non-negative"),
            ({"weight": float("nan")}, "weight must be finite"),
            ({"weight": float("-inf")}, "weight must be finite"),
            ({"dt": 0.0}, "dt must be positive"),
            ({"neuron_slice": slice(None, None, -2)}, "ascend"),
            ({"syn_type": 0.5}, "syn_type must be an integer"),
        ],
    )
    def test_poisson_rejects(self, kwargs, needle):
        arguments = {"rate_hz": 100.0, "weight": 1.0, "dt": DT, **kwargs}
        with pytest.raises(ConfigurationError, match=needle):
            PoissonStimulus(self.POP, **arguments)

    @pytest.mark.parametrize(
        "events, period", [({-1: [0]}, None), ({4: [0]}, 4), ({9: [0]}, 4)]
    )
    def test_pattern_rejects_steps_that_never_come(self, events, period):
        with pytest.raises(ConfigurationError, match="never reached"):
            PatternStimulus(self.POP, events, 1.0, period=period)

    @pytest.mark.parametrize(
        "indices", [[1.7, 4.9], [[1, 2]], 3], ids=["floats", "nested", "scalar"]
    )
    def test_pattern_rejects_indices_that_are_not_a_flat_integer_list(
        self, indices
    ):
        with pytest.raises(ConfigurationError, match="neuron indices at step 0"):
            PatternStimulus(self.POP, {0: indices}, 1.0)

    def test_pattern_rejects_non_finite_weight(self):
        with pytest.raises(ConfigurationError, match="weight must be finite"):
            PatternStimulus(self.POP, {0: [1]}, float("nan"))

    def test_slices_are_normalised_once(self):
        stimulus = PoissonStimulus(
            self.POP, 100.0, 1.0, DT, neuron_slice=slice(-4, 100, 2)
        )
        assert list(stimulus.targets) == [6, 8]
        assert stimulus.n_sources == 1
        assert type(
            PoissonStimulus(self.POP, 100.0, 1.0, DT, n_sources=np.int64(3)).n_sources
        ) is int

    def test_empty_slice_is_legal_and_silent(self):
        stimulus = PoissonStimulus(
            self.POP, 1e6, 1.0, DT, neuron_slice=slice(7, 3)
        )
        rows, _, plan = stimulus_rows(stimulus, 3, seed=0)
        assert not rows.any() and plan.uniforms_drawn == 0

    def test_rates_at_or_above_one_per_step_clamp_to_certainty(self):
        assert PoissonStimulus(self.POP, 1e6, 1.0, DT).p_spike == 1.0
        assert PoissonStimulus(self.POP, 1.0 / DT, 1.0, DT).p_spike == 1.0
