"""The engine fast path must not change any backend's observable output.

Two guarantees are pinned here:

* ``ReferenceBackend(use_engine=True)`` (the default) produces spike
  trains *identical* to the dict-state solver path (``use_engine=False``)
  on every Table I workload, each on its own Table I solver.
* The hardware backends, now routed through ``HardwareRuntime``, stay
  bit-identical to the reference contract they had before the refactor
  (their own equivalence tests cover numerics; here we check the
  runtime seam wiring).
"""

import pytest

from repro.assembly import DT
from repro.engine import CompiledRuntime, SolverRuntime
from repro.hardware import FlexonBackend, HardwareRuntime, HybridBackend
from repro.network import ReferenceBackend, Simulator
from repro.network.network import Network
from repro.network.stimulus import PoissonStimulus
from repro.frontend import build_simulation
from repro.workloads import build_workload, spec_for, workload_names


def _spikes(network, backend, steps=300, seed=7):
    result = Simulator(network, backend, dt=DT, seed=seed).run(steps)
    return {
        pop: result.spikes.result(pop).spike_pairs()
        for pop in network.populations
    }


@pytest.mark.parametrize("workload", workload_names())
def test_engine_path_is_spike_identical_on_workloads(workload):
    """The compiled kernel (Euler) or lowered flow (RKF45) against the
    dict-state oracle, 400 steps: long enough that no workload is
    silent."""
    digests = []
    for backend in ("reference", "solver"):
        simulator, _ = build_simulation(
            {**spec_for(workload, 0.03, 11, DT), "backend": backend}
        )
        result = simulator.run(400)
        assert result.total_spikes() > 0, (workload, backend, "silent")
        digests.append(result.spikes.digest())
    assert digests[0] == digests[1]


def test_engine_backend_builds_compiled_runtimes():
    network = build_workload("Brunel", scale=0.02, seed=1)
    backend = ReferenceBackend("Euler")
    backend.prepare(network)
    assert all(
        isinstance(rt, CompiledRuntime) for rt in backend.runtimes.values()
    )


def test_engine_disabled_builds_solver_runtimes():
    network = build_workload("Brunel", scale=0.02, seed=1)
    backend = ReferenceBackend("Euler", use_engine=False)
    backend.prepare(network)
    assert all(
        isinstance(rt, SolverRuntime) for rt in backend.runtimes.values()
    )


def test_rkf45_lowers_to_compiled_runtime():
    network = build_workload("Brette et al.", scale=0.02, seed=1)
    backend = ReferenceBackend("RKF45")
    backend.prepare(network)
    assert all(
        isinstance(rt, CompiledRuntime) and rt.solver == "RKF45"
        for rt in backend.runtimes.values()
    )


def test_unplannable_model_falls_back_to_solver_runtime():
    network = Network("hh")
    pop = network.add_population("p", 10, "HH")
    network.add_stimulus(PoissonStimulus(pop, 300.0, 5.0, dt=DT))
    backend = ReferenceBackend("Euler")
    backend.prepare(network)
    assert isinstance(backend.runtimes["p"], SolverRuntime)


def test_hardware_backends_route_through_hardware_runtime():
    network = build_workload("Brunel", scale=0.02, seed=1)
    backend = FlexonBackend(dt=DT)
    backend.prepare(network)
    assert all(
        isinstance(rt, HardwareRuntime) for rt in backend.runtimes.values()
    )


def test_hybrid_backend_splits_runtimes_per_population():
    network = Network("mixed")
    adex = network.add_population("adex", 10, "AdEx")
    hh = network.add_population("hh", 10, "HH")
    network.add_stimulus(PoissonStimulus(adex, 300.0, 5.0, dt=DT))
    network.add_stimulus(PoissonStimulus(hh, 300.0, 5.0, dt=DT))
    backend = HybridBackend(dt=DT)
    backend.prepare(network)
    assert isinstance(backend.runtimes["adex"], HardwareRuntime)
    assert isinstance(backend.runtimes["hh"], SolverRuntime)
    assert backend.offloaded == {"adex": True, "hh": False}
    assert backend.offloaded_fraction() == pytest.approx(0.5)
