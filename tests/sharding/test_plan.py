"""Tests for the deterministic shard partition plan."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.network.stimulus import PoissonStimulus
from repro.plasticity import PairSTDP
from repro.sharding import ShardPlan

DT = 1e-4


def _network(n_exc=30, n_inh=8):
    rng = np.random.default_rng(7)
    network = Network("plan-net")
    exc = network.add_population("exc", n_exc, "DLIF")
    network.add_population("inh", n_inh, "DLIF")
    network.connect(
        "exc", "exc", probability=0.3, weight=0.05, syn_type=0, rng=rng,
        delay_steps=3, delay_jitter=4,
    )
    network.connect(
        "inh", "exc", probability=0.3, weight=0.15, syn_type=1, rng=rng,
        delay_steps=4,
    )
    network.connect(
        "exc", "inh", probability=0.3, weight=0.06, syn_type=0, rng=rng,
        delay_steps=5,
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=900.0, weight=0.09, dt=DT, n_sources=8)
    )
    return network


class TestPartition:
    def test_slices_partition_every_population(self):
        plan = ShardPlan(_network(), 4)
        for name, n in plan.population_sizes.items():
            bounds = plan.bounds[name]
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo  # contiguous, no gaps, no overlap

    def test_balanced_within_one(self):
        plan = ShardPlan(_network(31, 7), 4)
        for bounds in plan.bounds.values():
            sizes = [hi - lo for lo, hi in bounds]
            assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_neurons_yields_empty_slices(self):
        plan = ShardPlan(_network(30, 2), 5)
        sizes = [hi - lo for lo, hi in plan.bounds["inh"]]
        assert sizes.count(0) == 3
        assert sum(sizes) == 2
        # owned() drops the empty slices but keeps population order.
        for shard in range(5):
            owned = plan.owned(shard)
            assert all(hi > lo for lo, hi in owned.values())

    def test_window_is_global_min_delay(self):
        plan = ShardPlan(_network(), 2)
        assert plan.window == 3

    def test_epochs_and_window_lengths_cover_the_run(self):
        plan = ShardPlan(_network(), 2)
        n_steps = 10  # window 3 -> epochs of 3,3,3,1
        epochs = plan.epochs_for(n_steps)
        assert epochs == 4
        lengths = [plan.window_length(e, n_steps) for e in range(epochs)]
        assert lengths == [3, 3, 3, 1]
        assert plan.window_length(epochs, n_steps) == 0


class TestValidation:
    def test_rejects_non_positive_shards(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(_network(), 0)
        with pytest.raises(ConfigurationError):
            ShardPlan(_network(), True)

    def test_rejects_plasticity(self):
        network = _network()
        network.add_plasticity(network.projections[0], PairSTDP())
        with pytest.raises(ConfigurationError, match="plasticity"):
            ShardPlan(network, 2)

    def test_shard_out_of_range(self):
        plan = ShardPlan(_network(), 3)
        with pytest.raises(ConfigurationError, match="out of range"):
            plan.slice_of("exc", 3)

    def test_unknown_population_names_known_ones(self):
        plan = ShardPlan(_network(), 2)
        with pytest.raises(ConfigurationError, match="exc"):
            plan.slice_of("nope", 0)
