"""Fused blocks: one kernel call per model, the same bits per population.

``RuntimeBackend.prepare`` groups populations with equal models into
one runtime over all their columns; ``runtimes[name]`` is then a member
view. Everything observable per population — spikes, state bytes,
saturation counts, cycles, ``advances`` and ``evaluations``, checkpoint
payloads — must be what one runtime per population produces, which is
what :mod:`tests.oracles.unfused` still does. That holds under RKF45
too, where the stepper accepts or rejects each member's substeps on its
own columns.
"""

import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import NumericsError, SimulationError
from repro.hardware.backend import (
    FlexonBackend,
    FoldedFlexonBackend,
    HardwareRuntime,
    HybridBackend,
)
from repro.hardware.event_driven import EventDrivenFlexonBackend
from repro.models import create_model
from repro.models.base import ModelParameters
from repro.network.backends import Block, ReferenceBackend, RuntimeBackend
from repro.network.network import Network
from repro.network.simulator import Simulator, bind_blocks
from repro.network.stimulus import PoissonStimulus
from repro.engine.runtime import CompiledRuntime
from repro.frontend import build_simulation
from repro.reliability import Checkpoint, NumericsGuard
from repro.telemetry import MetricsRegistry
from repro.workloads import build_workload, get_spec, spec_for, workload_names
from tests.oracles.faults import FaultInjector
from tests.oracles.unfused import run_unfused, unfused

DT = 1e-4

BACKENDS = {
    "reference": lambda: ReferenceBackend("Euler"),
    "flexon": lambda: FlexonBackend(DT),
    "folded": lambda: FoldedFlexonBackend(DT),
}

#: The adaptive path fuses too, but only the workloads Table I runs on
#: RKF45 lower under it (the others' models are not all continuous).
RKF45_BACKENDS = {"rkf45": lambda: ReferenceBackend("RKF45")}
RKF45_WORKLOADS = [
    name for name in workload_names() if get_spec(name).solver == "RKF45"
]


def _payload_bytes(payload) -> bytes:
    """A runtime snapshot, flattened to bytes (arrays by content)."""
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, dict):
            for key in value:  # insertion order is part of the payload
                digest.update(repr(key).encode())
                feed(value[key])
        elif isinstance(value, np.ndarray):
            digest.update(str((value.dtype, value.shape)).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())

    feed(payload)
    return digest.digest()


def _observed(simulator, saturation=True):
    """Everything per population a run leaves behind (``saturation``
    off: only what a checkpoint carries across a resume)."""
    out = {}
    for name, runtime in simulator.backend.runtimes.items():
        entry = {
            "state": {
                variable: (values.dtype.str, values.tobytes())
                for variable, values in runtime.state().items()
            },
            "payload": _payload_bytes(runtime.snapshot()),
        }
        if isinstance(runtime, CompiledRuntime):
            entry["advances"] = runtime.advances
            entry["evaluations"] = runtime.evaluations
        if isinstance(runtime, HardwareRuntime):
            entry["cycles"] = getattr(runtime.neuron, "total_cycles", None)
            if saturation:
                stats = runtime.saturation_stats
                entry["checked"] = stats.checked
                entry["clipped"] = dict(stats.clipped)
        out[name] = entry
    return out


def _pair(network_factory, backend, seed=4):
    """The same network on a fused simulator and on the oracle."""
    factory = {**BACKENDS, **RKF45_BACKENDS}[backend]
    fused = Simulator(network_factory(), factory(), dt=DT, seed=seed)
    oracle = Simulator(network_factory(), unfused(factory()), dt=DT, seed=seed)
    return fused, oracle


def _assert_same(fused, oracle, spikes, oracle_spikes):
    assert spikes.digest() == oracle_spikes.digest()
    assert list(fused.backend.runtimes) == list(oracle.backend.runtimes)
    assert _observed(fused) == _observed(oracle)
    captured = Checkpoint.capture(fused, spikes=spikes)
    expected = Checkpoint.capture(oracle, spikes=oracle_spikes)
    # Same file, byte for byte: what a resume reads cannot tell them apart.
    assert _saved_bytes(captured) == _saved_bytes(expected)


def _saved_bytes(checkpoint):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "c.ckpt")
        checkpoint.save(path)
        with open(path, "rb") as handle:
            return handle.read()


class TestRegistryWorkloads:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("workload", workload_names())
    def test_fused_equals_one_runtime_per_population(self, workload, backend):
        steps = 300
        fused, oracle = _pair(
            lambda: build_workload(workload, scale=0.05, seed=3), backend
        )
        # Every registry workload gives all its populations one model.
        assert len(fused.backend.blocks) == 1
        assert len(oracle.backend.blocks) == len(oracle.network.populations)
        result = fused.run(steps)
        oracle_spikes = run_unfused(oracle, steps)
        _assert_same(fused, oracle, result.spikes, oracle_spikes)
        assert result.neuron_updates == steps * fused.network.n_neurons

    @pytest.mark.parametrize("backend", ["flexon", "folded"])
    @pytest.mark.parametrize("workload", ["Izhikevich", "Brunel"])
    def test_clips_are_counted_where_they_fell(self, workload, backend):
        # The two workloads whose exc and inh populations both clip, or
        # clip very differently: a block-wide count would misattribute.
        steps = 400
        fused, oracle = _pair(
            lambda: build_workload(workload, scale=0.1, seed=3), backend
        )
        result = fused.run(steps)
        run_unfused(oracle, steps)
        clipped = {
            name: stats.total_clipped
            for name, stats in result.diagnostics.saturation.items()
        }
        assert sum(clipped.values()) > 0
        for name, runtime in oracle.backend.runtimes.items():
            stats = result.diagnostics.saturation[name]
            assert stats == runtime.saturation_stats
            assert stats.checked % fused.network.populations[name].n == 0
        if backend == "folded":
            (block,) = fused.backend.block_runtimes.values()
            neuron = block.neuron
            assert neuron.points_scanned > 0
            assert (
                neuron.points_proved + neuron.points_scanned
                == steps * neuron.points_per_step
            )

    def test_proof_counters_are_published_per_block(self):
        network = build_workload("Brunel", scale=0.05, seed=3)
        simulator = Simulator(network, FoldedFlexonBackend(DT), dt=DT, seed=4)
        result = simulator.run(200, metrics=MetricsRegistry())
        for family in (
            "fixedpoint_saturation_proved_total",
            "fixedpoint_saturation_scanned_total",
        ):
            (entry,) = result.metrics[family]["values"]
            assert entry["labels"] == {"population": "exc+inh"}
        # Everything else keeps one series per population.
        for family in ("runtime_neurons", "fixedpoint_saturation_checked_total"):
            assert {
                entry["labels"]["population"]
                for entry in result.metrics[family]["values"]
            } == {"exc", "inh"}


# -- generated networks ------------------------------------------------------

MODELS = {
    "lif": lambda: create_model("LIF"),
    "lif-fast": lambda: create_model("LIF", parameters=ModelParameters(tau=10e-3)),
    "dlif": lambda: create_model("DLIF"),
    "izhikevich": lambda: create_model("Izhikevich"),
    "adex": lambda: create_model("AdEx"),
}

#: LIF scales its input by ``dt / tau``; weights into it are this much
#: larger so that it fires within a short run like the others.
GAIN = {"lif": 100.0, "lif-fast": 60.0}


def _generated(populations, seed):
    """``populations`` is ``[(model key, size), ...]``; wiring, delays
    and drive come from ``seed``."""
    rng = np.random.default_rng(seed)
    network = Network(f"generated-{seed}")
    names, gain = [], {}
    for index, (model, n) in enumerate(populations):
        name = f"p{index}"
        network.add_population(name, n, MODELS[model]())
        names.append(name)
        gain[name] = GAIN.get(model, 1.0)
    for pre in names:
        for post in names:
            if rng.random() < 0.7:
                network.connect(
                    pre, post,
                    probability=float(rng.uniform(0.2, 0.9)),
                    weight=gain[post] * float(rng.uniform(0.02, 0.3)),
                    syn_type=int(rng.integers(0, 2)),
                    rng=rng,
                    delay_steps=int(rng.integers(1, 4)),
                    delay_jitter=int(rng.integers(0, 3)),
                )
    for name in names:
        network.add_stimulus(
            PoissonStimulus(
                network.populations[name],
                rate_hz=float(rng.uniform(2000.0, 6000.0)),
                weight=gain[name] * float(rng.uniform(0.2, 0.6)),
                dt=DT,
                n_sources=int(rng.integers(2, 6)),
            )
        )
    return network


def _expected_blocks(populations):
    groups = {}
    for index, (model, _) in enumerate(populations):
        groups.setdefault(model, []).append(f"p{index}")
    return {"+".join(members): tuple(members) for members in groups.values()}


POPULATIONS = st.lists(
    st.tuples(st.sampled_from(sorted(MODELS)), st.sampled_from([1, 2, 7, 23])),
    min_size=1,
    max_size=4,
)


class TestGeneratedNetworks:
    @given(
        populations=POPULATIONS,
        backend=st.sampled_from(sorted(BACKENDS)),
        seed=st.integers(min_value=0, max_value=2**31),
        kill_at=st.integers(min_value=1, max_value=79),
    )
    # The interleaving A(X), B(Y), C(X): a block whose members are not
    # neighbours in network order, stepped before the population between.
    @example(
        populations=[("lif", 5), ("izhikevich", 1), ("lif", 4)],
        backend="folded", seed=11, kill_at=37,
    )
    @example(
        populations=[("lif", 3), ("lif-fast", 3), ("lif", 1), ("lif-fast", 2)],
        backend="reference", seed=5, kill_at=1,
    )
    @settings(max_examples=30, deadline=None)
    def test_any_mix_of_models_matches_the_oracle(
        self, populations, backend, seed, kill_at
    ):
        steps = 80
        fused, oracle = _pair(lambda: _generated(populations, seed), backend)
        assert {
            block.name: tuple(name for name, _, _ in block.members)
            for block in fused.backend.blocks
        } == _expected_blocks(populations)

        # The oracle runs to ``kill_at``; its checkpoint seeds a second
        # fused simulator, which must finish like the uninterrupted one.
        oracle_spikes = run_unfused(oracle, kill_at)
        checkpoint = Checkpoint.capture(oracle, spikes=oracle_spikes)
        resumed = Simulator(
            _generated(populations, seed), BACKENDS[backend](), dt=DT, seed=4
        )
        checkpoint.restore(resumed)
        tail = resumed.run(steps - kill_at, spikes=checkpoint.seed_recorder())

        result = fused.run(steps)
        run_unfused(oracle, steps - kill_at, spikes=oracle_spikes)
        _assert_same(fused, oracle, result.spikes, oracle_spikes)
        assert tail.spikes.digest() == result.spikes.digest()
        assert _observed(resumed, saturation=False) == _observed(
            fused, saturation=False
        )


# -- the seams ---------------------------------------------------------------


def _two_models():
    """exc and inh share LIF; mid, between them in network order, is
    Izhikevich: blocks ``exc+inh`` and ``mid``."""
    return _generated([("lif", 12), ("izhikevich", 5), ("lif", 6)], seed=2)


class TestSchedule:
    def test_blocks_follow_network_order_of_their_first_member(self):
        backend = ReferenceBackend()
        backend.prepare(_two_models())
        assert backend.blocks == [
            Block("p0+p2", (("p0", 0, 12), ("p2", 12, 18))),
            Block("p1", (("p1", 0, 5),)),
        ]
        assert list(backend.runtimes) == ["p0", "p1", "p2"]
        assert backend.runtimes["p1"] is backend.block_runtimes["p1"]
        assert backend.runtimes["p2"].block is backend.block_runtimes["p0+p2"]

    def test_a_block_of_one_reads_its_ring_bucket_untouched(self):
        simulator = Simulator(_two_models(), dt=DT, seed=3)
        bound = {name: gather for name, _, gather, _ in bind_blocks(
            simulator.backend, simulator.router.rings
        )}
        ring = simulator.router.ring("p1")
        assert np.shares_memory(bound["p1"](), ring.current())
        gathered = bound["p0+p2"]()
        assert gathered.shape == (2, 18)
        assert gathered is bound["p0+p2"]()  # one preallocated input

    def test_advancing_a_fused_member_names_its_block(self):
        simulator = Simulator(_two_models(), dt=DT, seed=3)
        inputs = np.zeros((2, 6))
        with pytest.raises(SimulationError, match=r"'p2'.*block 'p0\+p2'"):
            simulator.backend.advance("p2", inputs, DT)
        with pytest.raises(SimulationError, match="unknown population"):
            simulator.backend.advance("nobody", inputs, DT)

    def test_a_plain_backend_gets_one_block_per_population(self):
        class PerPopulation(RuntimeBackend):
            """No ``block_key``: every population is a block of one."""

            name = "per-population"

            def build_runtime(self, population):
                return CompiledRuntime(
                    population.name,
                    population.n,
                    population.model,
                    "Euler",
                )

        backend = PerPopulation()
        result = Simulator(_two_models(), backend, dt=DT, seed=3).run(60)
        assert [block.name for block in backend.blocks] == ["p0", "p1", "p2"]
        assert result.blocks == {"p0": ("p0",), "p1": ("p1",), "p2": ("p2",)}
        fused = Simulator(_two_models(), dt=DT, seed=3).run(60)
        assert result.spikes.digest() == fused.spikes.digest()
        assert result.total_spikes() > 0

    def test_result_lists_the_blocks(self):
        result = Simulator(_two_models(), dt=DT, seed=3).run(3)
        assert result.blocks == {"p0+p2": ("p0", "p2"), "p1": ("p1",)}

    @pytest.mark.parametrize(
        "backend",
        [
            ReferenceBackend("Euler", use_engine=False),
            EventDrivenFlexonBackend(DT),
        ],
        ids=["dict-state", "event-driven"],
    )
    def test_excluded_runtimes_stay_blocks_of_one(self, backend):
        network = build_workload("Vogels et al.", scale=0.02, seed=3)
        backend.prepare(network)
        assert [block.name for block in backend.blocks] == list(network.populations)
        assert all(r.block is None for r in backend.runtimes.values())

    def test_hybrid_fuses_what_it_offloads(self):
        network = Network("hybrid")
        network.add_population("a", 4, "AdEx")
        network.add_population("hh", 2, "HH")
        network.add_population("b", 3, "AdEx")
        backend = HybridBackend(DT)
        backend.prepare(network)
        assert [block.name for block in backend.blocks] == ["a+b", "hh"]
        assert backend.offloaded == {"a": True, "hh": False, "b": True}

    def test_vogels_solver_does_not_move(self):
        network = build_workload("Vogels et al.", scale=0.05, seed=3)
        simulator = Simulator(network, ReferenceBackend("RKF45"), dt=DT, seed=4)
        result = simulator.run(1500)
        assert result.evaluations_per_step == {"exc": 6.0, "inh": 6.0}
        assert result.spikes.digest() == (
            "21348621b6e9432491d0b76c02bb974a1a4877dbe8b2a7c3aca6074d9da41a81"
        )


class TestAdaptiveBlocks:
    """RKF45 populations step as one block: one first trial over every
    column, then each member accepted, or continued alone, on its own."""

    @pytest.mark.parametrize("scale", [0.03, 0.2])
    @pytest.mark.parametrize("workload", RKF45_WORKLOADS)
    def test_fused_equals_one_stepper_per_population(self, workload, scale):
        steps = 300
        fused, oracle = _pair(
            lambda: build_workload(workload, scale=scale, seed=3), "rkf45"
        )
        assert [block.name for block in fused.backend.blocks] == ["exc+inh"]
        result = fused.run(steps)
        oracle_spikes = run_unfused(oracle, steps)
        _assert_same(fused, oracle, result.spikes, oracle_spikes)
        assert result.evaluations_per_step == {
            name: runtime.evaluations_per_step()
            for name, runtime in oracle.backend.runtimes.items()
        }

    @pytest.mark.parametrize(
        "workload, expected",
        [
            ("Destexhe-LTS", {"exc": 39.06, "inh": 6.0}),
            ("Destexhe-UpDown", {"exc": 56.445, "inh": 6.0}),
        ],
    )
    def test_destexhe_rejects_only_where_its_own_stepper_did(
        self, workload, expected
    ):
        # A block-wide accept/reject makes inh retry whenever exc does
        # (UpDown's inh read 56.45 per step that way) with the same
        # spikes: only the counts and state bytes show it.
        simulator, _ = build_simulation(
            {**spec_for(workload, 0.03, 5), "backend": "reference"}
        )
        result = simulator.run(400)
        assert result.blocks == {"exc+inh": ("exc", "inh")}
        assert result.evaluations_per_step == expected

    def test_solver_metrics_stay_per_population(self):
        fused, oracle = _pair(
            lambda: build_workload("Destexhe-LTS", scale=0.03, seed=3), "rkf45"
        )
        fused.run(60)
        run_unfused(oracle, 60)
        snapshots = []
        for simulator in (fused, oracle):
            metrics = MetricsRegistry()
            simulator.backend.publish_metrics(metrics)
            snapshots.append(metrics.snapshot())
        fused_metrics, oracle_metrics = snapshots
        for family in (
            "runtime_advances_total",
            "runtime_solver_evaluations_total",
        ):
            assert fused_metrics[family] == oracle_metrics[family]
        evaluations = {
            entry["labels"]["population"]: entry["value"]
            for entry in fused_metrics["runtime_solver_evaluations_total"]["values"]
        }
        assert evaluations["exc"] > evaluations["inh"] == 6 * 60

    @pytest.mark.parametrize("member, index", [("exc", 3), ("inh", 4)])
    def test_a_nan_in_one_member_raises_what_its_own_stepper_raises(
        self, member, index
    ):
        fused, oracle = _pair(
            lambda: build_workload("Destexhe-UpDown", scale=0.03, seed=3), "rkf45"
        )
        spikes = fused.run(20).spikes
        oracle_spikes = run_unfused(oracle, 20)
        raised = []
        for simulator, run in (
            (fused, lambda: fused.run(5, spikes=spikes)),
            (oracle, lambda: run_unfused(oracle, 5, spikes=oracle_spikes)),
        ):
            FaultInjector(simulator).inject_nan(member, "v", index=index)
            with pytest.raises(NumericsError) as error:
                run()
            raised.append(error.value)
        got, expected = raised
        assert (got.population, got.step, got.variable, got.indices) == (
            member, 20, "v", (index,)
        )
        assert str(got) == str(expected)
        assert (got.population, got.step, got.variable, got.indices) == (
            expected.population,
            expected.step,
            expected.variable,
            expected.indices,
        )

    @pytest.mark.parametrize("writer", ["unfused", "fused"])
    def test_checkpoints_cross_between_fused_and_unfused(self, writer):
        steps, kill_at = 200, 70

        def simulator(fused):
            backend = ReferenceBackend("RKF45")
            return Simulator(
                build_workload("Destexhe-LTS", scale=0.03, seed=3),
                backend if fused else unfused(backend),
                dt=DT,
                seed=4,
            )

        uninterrupted = simulator(True).run(steps).spikes.digest()
        first = simulator(writer == "fused")
        spikes = first.run(kill_at).spikes
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "c.ckpt")
            Checkpoint.capture(first, spikes=spikes).save(path)
            checkpoint = Checkpoint.load(path)
        resumed = simulator(writer != "fused")
        checkpoint.restore(resumed)
        tail = resumed.run(steps - kill_at, spikes=checkpoint.seed_recorder())
        assert tail.spikes.digest() == uninterrupted
        assert len(resumed.backend.blocks) == (1 if writer == "unfused" else 2)


class TestFaultSeams:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_a_flip_in_a_member_lands_in_its_block_columns(self, backend):
        fused, oracle = _pair(_two_models, backend)
        spikes = fused.run(20).spikes
        oracle_spikes = run_unfused(oracle, 20)
        flips = [
            FaultInjector(sim, seed=9).flip_state_bits("p2", n_flips=6, variable="v")
            for sim in (fused, oracle)
        ]
        assert flips[0] == flips[1]
        # p2 is columns 12:18 of the block: neuron k is block column 12 + k.
        block = fused.backend.block_runtimes["p0+p2"]
        member = fused.backend.runtimes["p2"]
        for variable, values in member.state().items():
            assert np.array_equal(values, block.state()[variable][12:18])
        assert any(flip.bit >= 20 for flip in flips[0])
        result = fused.run(40, spikes=spikes)
        run_unfused(oracle, 40, spikes=oracle_spikes)
        _assert_same(fused, oracle, result.spikes, oracle_spikes)

    def test_numerics_guard_names_the_member_not_the_block(self):
        simulator = Simulator(_two_models(), dt=DT, seed=3)
        simulator.run(5)
        FaultInjector(simulator).inject_nan("p2", "v", index=4)
        with pytest.raises(NumericsError) as raised:
            simulator.run(5, hooks=[NumericsGuard(simulator.backend)])
        assert raised.value.population == "p2"
        assert list(raised.value.indices) == [4]

    def test_a_member_restore_writes_the_block(self):
        simulator = Simulator(_two_models(), FoldedFlexonBackend(DT), dt=DT, seed=3)
        simulator.run(30)
        member = simulator.backend.runtimes["p2"]
        block = simulator.backend.block_runtimes["p0+p2"]
        payload = member.snapshot()
        assert payload["neuron"]["regs"].shape[1] == 6
        assert payload["neuron"]["total_cycles"] == 30 * 6 * member.cycles_per_neuron
        payload["neuron"]["regs"][:] = 7
        member.restore(payload)
        assert (block.neuron.regs[:, 12:18] == 7).all()
        assert not (block.neuron.regs[:, :12] == 7).all()
        assert block.neuron.steps == 30
