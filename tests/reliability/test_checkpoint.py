"""Tests: kill-and-resume is bit-identical on every backend."""

import numpy as np
import pytest

from repro.engine.hooks import PhaseHook
from repro.errors import CheckpointError, RunInterrupted
from repro.frontend import build_simulation
from repro.hardware.backend import (
    FlexonBackend,
    FoldedFlexonBackend,
    HardwareRuntime,
    HybridBackend,
)
from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PoissonStimulus
from repro.plasticity import PairSTDP
from repro.reliability import Checkpoint, CheckpointHook
from repro.workloads import spec_for, workload_names

DT = 1e-4

BACKENDS = {
    "engine": lambda: ReferenceBackend("Euler"),
    "solver": lambda: ReferenceBackend("Euler", use_engine=False),
    "rkf45": lambda: ReferenceBackend("RKF45"),
    "flexon": lambda: FlexonBackend(DT),
    "folded": lambda: FoldedFlexonBackend(DT),
    "hybrid": lambda: HybridBackend(DT),
}


def _network(plastic=False):
    rng = np.random.default_rng(77)
    network = Network("ckpt-net")
    exc = network.add_population("exc", 30, "DLIF")
    network.add_population("inh", 8, "DLIF")
    network.connect(
        "exc", "exc", probability=0.2, weight=0.05, syn_type=0, rng=rng,
        delay_steps=1, delay_jitter=3,
    )
    projection = network.connect(
        "inh", "exc", probability=0.2, weight=0.15, syn_type=1, rng=rng
    )
    if plastic:
        network.add_plasticity(projection, PairSTDP())
    network.connect(
        "exc", "inh", probability=0.2, weight=0.06, syn_type=0, rng=rng
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=800.0, weight=0.09, dt=DT, n_sources=8)
    )
    return network


def _final_state(simulator):
    """Every population's state and a hardware array's cycle count."""
    state = {}
    for name, runtime in simulator.backend.runtimes.items():
        state[name] = {k: v.copy() for k, v in runtime.state().items()}
        if isinstance(runtime, HardwareRuntime):
            state[name]["total_cycles"] = runtime.neuron.total_cycles
    return state


def _spike_sets(result, network):
    return {
        name: result.spikes.result(name).spike_pairs()
        for name in network.populations
    }


def _run_uninterrupted(make_backend, steps, plastic=False):
    network = _network(plastic)
    simulator = Simulator(network, make_backend(), dt=DT, seed=11)
    result = simulator.run(steps)
    return _spike_sets(result, network), _final_state(simulator)


def _run_resumed(make_backend, kill_at, steps, tmp_path, plastic=False):
    """Run to ``kill_at``, checkpoint to disk, resume in a NEW simulator."""
    network = _network(plastic)
    simulator = Simulator(network, make_backend(), dt=DT, seed=11)
    first = simulator.run(kill_at)
    path = str(tmp_path / "state.ckpt")
    Checkpoint.capture(simulator, spikes=first.spikes).save(path)
    del simulator  # the "crash"

    checkpoint = Checkpoint.load(path)
    network2 = _network(plastic)
    simulator2 = Simulator(network2, make_backend(), dt=DT, seed=11)
    checkpoint.restore(simulator2)
    assert simulator2.current_step == kill_at
    result = simulator2.run(
        steps - kill_at, spikes=checkpoint.seed_recorder()
    )
    return _spike_sets(result, network2), _final_state(simulator2)


class _Payload:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestBitIdenticalResume:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_resume_equals_uninterrupted(self, backend, tmp_path):
        make = BACKENDS[backend]
        whole_spikes, whole_state = _run_uninterrupted(make, 60)
        part_spikes, part_state = _run_resumed(make, 23, 60, tmp_path)
        assert part_spikes == whole_spikes
        for name in whole_state:
            for variable, values in whole_state[name].items():
                assert np.array_equal(values, part_state[name][variable]), (
                    f"{name}.{variable} differs after resume"
                )

    def test_resume_preserves_plasticity_bit_identically(self, tmp_path):
        make = BACKENDS["engine"]
        whole_spikes, whole_state = _run_uninterrupted(make, 60, plastic=True)
        part_spikes, part_state = _run_resumed(
            make, 31, 60, tmp_path, plastic=True
        )
        assert part_spikes == whole_spikes
        for name in whole_state:
            for variable, values in whole_state[name].items():
                assert np.array_equal(values, part_state[name][variable])


class TestCheckpointHook:
    def test_periodic_hook_resumes_bit_identically(self, tmp_path):
        make = BACKENDS["engine"]
        path = str(tmp_path / "periodic.ckpt")

        network = _network()
        simulator = Simulator(network, make(), dt=DT, seed=11)
        hook = CheckpointHook(simulator, every=17, path=path)
        simulator.run(40, hooks=[hook])  # checkpoints at steps 17, 34
        assert hook.captures == 2

        checkpoint = Checkpoint.load(path)
        assert checkpoint.step == 34
        simulator2 = Simulator(_network(), make(), dt=DT, seed=11)
        checkpoint.restore(simulator2)
        result = simulator2.run(26, spikes=checkpoint.seed_recorder())

        whole_spikes, whole_state = _run_uninterrupted(make, 60)
        assert _spike_sets(result, simulator2.network) == whole_spikes
        assert simulator2.current_step == 60

    def test_hook_validates_interval(self, small_network):
        simulator = Simulator(small_network, dt=DT, seed=1)
        with pytest.raises(CheckpointError):
            CheckpointHook(simulator, every=-1, path="x.ckpt")
        with pytest.raises(CheckpointError):
            CheckpointHook(simulator, every=5, path=None)

    def test_an_interrupt_on_a_periodic_boundary_captures_once(
        self, tmp_path
    ):
        simulator = Simulator(_network(), ReferenceBackend(), dt=DT, seed=11)
        path = str(tmp_path / "both.ckpt")
        hook = CheckpointHook(simulator, path, every=5)

        class RequestAtTen(PhaseHook):
            def on_step_start(self, step):
                if step == 10:
                    hook.request("SIGTERM")

        with pytest.raises(RunInterrupted) as info:
            simulator.run(20, hooks=[RequestAtTen(), hook])
        assert (info.value.step, info.value.checkpoint) == (10, path)
        assert hook.captures == 2  # step 5, then step 10 once
        assert Checkpoint.load(path).step == 10

    def test_an_unwritable_path_stops_the_run(self, tmp_path):
        # A CheckpointError is a library error: it propagates out of the
        # run instead of being isolated as a foreign hook failure.
        simulator = Simulator(_network(), ReferenceBackend(), dt=DT, seed=11)
        path = str(tmp_path / "missing" / "x.ckpt")
        hook = CheckpointHook(simulator, every=3, path=path)
        with pytest.raises(CheckpointError) as info:
            simulator.run(10, hooks=[hook])
        assert info.value.reason == "io-error"
        assert simulator.current_step == 3
        assert hook.captures == 0


class TestSafetyChecks:
    def _checkpoint(self):
        simulator = Simulator(_network(), ReferenceBackend(), dt=DT, seed=11)
        simulator.run(5)
        return Checkpoint.capture(simulator)

    def test_wrong_population_sizes_rejected(self):
        checkpoint = self._checkpoint()
        other = Network("ckpt-net")
        other.add_population("exc", 31, "DLIF")  # 30 in the original
        other.add_population("inh", 8, "DLIF")
        simulator = Simulator(other, ReferenceBackend(), dt=DT, seed=11)
        with pytest.raises(CheckpointError, match="signature"):
            checkpoint.restore(simulator)

    def test_wrong_backend_rejected(self):
        checkpoint = self._checkpoint()
        simulator = Simulator(_network(), FlexonBackend(DT), dt=DT, seed=11)
        with pytest.raises(CheckpointError, match="signature"):
            checkpoint.restore(simulator)

    def test_wrong_dt_rejected(self):
        checkpoint = self._checkpoint()
        simulator = Simulator(_network(), ReferenceBackend(), dt=2e-4, seed=11)
        with pytest.raises(CheckpointError, match="signature"):
            checkpoint.restore(simulator)

    def test_unknown_version_rejected(self):
        # One generic refusal for every other version, older or newer.
        simulator = Simulator(_network(), ReferenceBackend(), dt=DT, seed=11)
        for version in (1, 2, 999):
            checkpoint = self._checkpoint()
            checkpoint.version = version
            with pytest.raises(CheckpointError, match="version") as info:
                checkpoint.restore(simulator)
            assert "re-capture from a fresh run" in str(info.value)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "nope.ckpt")
        with pytest.raises(CheckpointError, match="does not exist") as info:
            Checkpoint.load(path)
        assert info.value.path == path
        assert info.value.reason == "not-found"

    def test_non_checkpoint_file_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError, match="does not contain") as info:
            Checkpoint.load(str(path))
        assert info.value.reason == "wrong-type"

    def test_truncated_file_names_path_and_reason(self, tmp_path):
        # A torn copy of a real checkpoint: valid pickle prefix, missing
        # tail. Must surface as a structured error, not a bare EOFError.
        import pickle

        path = tmp_path / "torn.ckpt"
        self._checkpoint().save(str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError) as info:
            Checkpoint.load(str(path))
        assert info.value.path == str(path)
        assert info.value.reason in ("truncated", "not-a-pickle", "corrupt")
        assert not isinstance(info.value, (EOFError, pickle.UnpicklingError))

    def test_non_pickle_file_names_path_and_reason(self, tmp_path):
        path = tmp_path / "noise.ckpt"
        path.write_bytes(b"definitely not a pickle stream")
        with pytest.raises(CheckpointError) as info:
            Checkpoint.load(str(path))
        assert info.value.path == str(path)
        assert info.value.reason in ("not-a-pickle", "truncated", "corrupt")

    def test_empty_file_is_truncated(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError) as info:
            Checkpoint.load(str(path))
        assert info.value.reason == "truncated"
        assert info.value.path == str(path)

    def test_save_into_a_missing_directory_names_path_and_reason(
        self, tmp_path
    ):
        path = str(tmp_path / "missing" / "x.ckpt")
        with pytest.raises(CheckpointError, match="cannot write") as info:
            self._checkpoint().save(path)
        assert info.value.path == path
        assert info.value.reason == "io-error"
        assert isinstance(info.value.__cause__, FileNotFoundError)

    def test_a_pickle_is_refused_without_being_run(self, tmp_path):
        # Versions <= 3 were pickles; loading one ran whatever its
        # __reduce__ named.
        import pickle

        marker = tmp_path / "marker"
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps(_Payload(str(marker))))
        with pytest.raises(CheckpointError, match="version-4") as info:
            Checkpoint.load(str(path))
        assert info.value.reason == "wrong-type"
        assert "re-capture" in str(info.value)
        assert not marker.exists()

    def test_an_object_array_is_refused_without_being_run(self, tmp_path):
        marker = tmp_path / "marker"
        path = tmp_path / "poisoned.ckpt"
        self._checkpoint().save(str(path))
        with np.load(str(path)) as archive:
            members = {key: archive[key] for key in archive.files}
        members["spikes/exc/0"] = np.array(
            [_Payload(str(marker))], dtype=object
        )
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        with pytest.raises(CheckpointError, match="version-4") as info:
            Checkpoint.load(str(path))
        assert info.value.reason == "wrong-type"
        assert not marker.exists()

    def test_a_named_word_hardware_payload_is_refused(self, tmp_path):
        # Baseline Flexon's payload before both arrays shared one
        # register file: a word per state variable, no ``regs``.
        simulator = Simulator(_network(), FlexonBackend(DT), dt=DT, seed=11)
        simulator.run(5)
        checkpoint = Checkpoint.capture(simulator)
        for name, payload in checkpoint.runtimes.items():
            runtime = simulator.backend.runtimes[name]
            payload["neuron"] = {
                variable: words.copy()
                for variable, words in runtime.neuron.state.items()
            }
        path = str(tmp_path / "named.ckpt")
        checkpoint.save(path)
        fresh = Simulator(_network(), FlexonBackend(DT), dt=DT, seed=11)
        with pytest.raises(CheckpointError) as info:
            Checkpoint.load(path).restore(fresh)
        message = str(info.value)
        assert "cannot restore 'exc'" in message
        assert "not a Flexon register file" in message
        assert "['cnt', 'regs', 'total_cycles']" in message

    def test_save_is_atomic_no_temp_residue(self, tmp_path):
        checkpoint = self._checkpoint()
        path = tmp_path / "atomic.ckpt"
        checkpoint.save(str(path))
        checkpoint.save(str(path))  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.ckpt"]


@pytest.mark.parametrize("backend", ["reference", "folded"])
@pytest.mark.parametrize("workload", workload_names())
def test_every_registry_workload_resumes_through_the_file(
    workload, backend, tmp_path
):
    spec = {**spec_for(workload, 0.03, 5), "backend": backend}
    whole, _ = build_simulation(spec)
    expected = whole.run(400).spikes.digest()
    first, _ = build_simulation(spec)
    path = str(tmp_path / "c.ckpt")
    Checkpoint.capture(first, spikes=first.run(300).spikes).save(path)
    checkpoint = Checkpoint.load(path)
    resumed, _ = build_simulation(spec)
    checkpoint.restore(resumed)
    result = resumed.run(100, spikes=checkpoint.seed_recorder())
    assert result.spikes.digest() == expected
