"""Tests: the windowed shard protocol is bit-identical to the simulator."""

import numpy as np
import pytest

from repro.assembly import assemble
from repro.errors import ShardingError
from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PoissonStimulus
from repro.sharding import (
    ShardPlan,
    ShardRunner,
    merge_spikes,
    merge_windows,
    simulate_sharded,
)

DT = 1e-4
SEED = 11


def _network():
    rng = np.random.default_rng(5)
    network = Network("shard-net")
    exc = network.add_population("exc", 40, "DLIF")
    network.add_population("inh", 10, "DLIF")
    network.connect(
        "exc", "exc", probability=0.3, weight=0.05, syn_type=0, rng=rng,
        delay_steps=2, delay_jitter=4,
    )
    network.connect(
        "inh", "exc", probability=0.3, weight=0.18, syn_type=1, rng=rng,
        delay_steps=3,
    )
    network.connect(
        "exc", "inh", probability=0.3, weight=0.07, syn_type=0, rng=rng,
        delay_steps=2,
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=900.0, weight=0.10, dt=DT, n_sources=8)
    )
    return network


def _single_digest(steps):
    simulator = Simulator(_network(), ReferenceBackend(), dt=DT, seed=SEED)
    result = simulator.run(steps)
    return result.spikes.digest(), result.total_spikes()


class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_inline_sharded_matches_single_process(self, n_shards):
        steps = 120
        digest, total = _single_digest(steps)
        result = simulate_sharded(
            _network(), n_shards, steps, dt=DT, seed=SEED
        )
        assert total > 0, "silent network would make the pin vacuous"
        assert result.total_spikes() == total
        assert result.digest() == digest

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_constant_tables_shard_bit_identically(self, n_shards):
        # Every Potjans-Diesmann projection is a constant table (one
        # broadcast weight); the shard slices keep it one.
        assembly = assemble("Potjans-Diesmann", scale=0.05, seed=4)
        plan = ShardPlan(assembly.network, n_shards)
        for shard in range(n_shards):
            local = ShardRunner(
                assembly.network, plan, shard, assembly.backend(),
                dt=assembly.dt, seed=assembly.stimulus_seed,
            ).network
            for projection in assembly.network.projections + local.projections:
                assert projection.weights.strides == (0,), projection.name
        single = assembly.simulator().run(200)
        assert single.total_spikes() > 0
        sharded = simulate_sharded(
            assembly.network, n_shards, 200,
            backend_factory=assembly.backend, seed=assembly.stimulus_seed,
        )
        assert sharded.digest() == single.spikes.digest()

    def test_partial_final_window(self):
        # steps not divisible by the window: the last epoch is short.
        steps = 115  # window 2 -> 57 full epochs + 1 step
        digest, _ = _single_digest(steps)
        result = simulate_sharded(_network(), 3, steps, dt=DT, seed=SEED)
        assert result.epochs == -(-steps // result.window)
        assert result.digest() == digest


class TestRunnerMechanics:
    def test_exchange_length_mismatch_rejected(self):
        network = _network()
        plan = ShardPlan(network, 2)
        runner = ShardRunner(
            network, plan, 0, ReferenceBackend(), dt=DT, seed=SEED
        )
        window = runner.run_window(plan.window)
        merged = merge_windows(plan, [window], plan.window)
        short = {name: steps[:-1] for name, steps in merged.items()}
        with pytest.raises(ShardingError, match="steps"):
            runner.apply_exchange(short, plan.window)

    def test_merge_windows_preserves_ascending_order(self):
        network = _network()
        plan = ShardPlan(network, 3)
        runners = [
            ShardRunner(
                network, plan, shard, ReferenceBackend(), dt=DT, seed=SEED
            )
            for shard in range(3)
        ]
        for _ in range(8):
            windows = [r.run_window(plan.window) for r in runners]
            merged = merge_windows(plan, windows, plan.window)
            for per_step in merged.values():
                for fired in per_step:
                    assert np.all(np.diff(fired) > 0) or fired.size <= 1
            for r in runners:
                r.apply_exchange(merged, plan.window)

    def test_merge_spikes_matches_single_recorder_layout(self):
        steps = 60
        simulator = Simulator(
            _network(), ReferenceBackend(), dt=DT, seed=SEED
        )
        reference = simulator.run(steps).spikes
        result = simulate_sharded(_network(), 3, steps, dt=DT, seed=SEED)
        merged = merge_spikes([result.spikes.snapshot()])
        assert merged.digest() == reference.digest()
