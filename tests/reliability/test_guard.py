"""Tests: NumericsGuard detects bad state within one step."""

import numpy as np
import pytest

from repro.errors import NumericsError, ReliabilityError, SimulationError
from repro.network.backends import ReferenceBackend
from repro.network.simulator import Simulator
from repro.reliability import NumericsGuard
from tests.oracles.faults import FaultInjector

DT = 1e-4


def _simulator(small_network, **backend_kwargs):
    return Simulator(
        small_network, ReferenceBackend("Euler", **backend_kwargs),
        dt=DT, seed=3,
    )


class TestGuardClean:
    def test_clean_run_passes_and_counts_checks(self, small_network):
        simulator = _simulator(small_network)
        guard = NumericsGuard(simulator.backend)
        simulator.run(20, hooks=[guard])
        # Two populations, screened after every neuron phase.
        assert guard.checks == 40

    def test_check_every_thins_the_screens(self, small_network):
        simulator = _simulator(small_network)
        guard = NumericsGuard(simulator.backend, check_every=5)
        simulator.run(20, hooks=[guard])
        assert guard.checks == 2 * 4  # steps 0, 5, 10, 15

    def test_rejects_bad_check_every(self, small_network):
        simulator = _simulator(small_network)
        with pytest.raises(SimulationError):
            NumericsGuard(simulator.backend, check_every=0)


class TestGuardDetection:
    def test_injected_nan_detected_within_one_step(self, small_network):
        simulator = _simulator(small_network)
        simulator.run(10)
        FaultInjector(simulator).inject_nan("exc", variable="v", index=3)
        guard = NumericsGuard(simulator.backend)
        with pytest.raises(NumericsError) as excinfo:
            simulator.run(1, hooks=[guard])
        error = excinfo.value
        assert error.population == "exc"
        assert error.step == 10
        assert error.variable == "v"
        assert 3 in error.indices

    def test_numerics_error_is_a_reliability_error(self, small_network):
        simulator = _simulator(small_network)
        FaultInjector(simulator).inject_nan("exc")
        with pytest.raises(ReliabilityError):
            simulator.run(1, hooks=[NumericsGuard(simulator.backend)])

    def test_divergence_beyond_limit_detected(self, small_network):
        # A diverged membrane would fire and reset, so poison a
        # conductance: it only decays and stays over the limit.
        simulator = _simulator(small_network)
        runtime = simulator.backend.runtime("inh")
        runtime.state()["g0"][0] = 1e9
        with pytest.raises(NumericsError) as excinfo:
            simulator.run(1, hooks=[NumericsGuard(simulator.backend)])
        assert excinfo.value.population == "inh"
        assert excinfo.value.variable == "g0"

    def test_limit_none_checks_finiteness_only(self, small_network):
        simulator = _simulator(small_network)
        runtime = simulator.backend.runtime("inh")
        runtime.state()["g0"][0] = 1e9
        guard = NumericsGuard(simulator.backend, limit=None)
        simulator.run(1, hooks=[guard])  # finite, so no error

    def test_solver_path_is_guarded_too(self, small_network):
        simulator = _simulator(small_network, use_engine=False)
        FaultInjector(simulator).inject_nan("exc", variable="v", index=0)
        with pytest.raises(NumericsError):
            simulator.run(1, hooks=[NumericsGuard(simulator.backend)])


class TestRuntimeHealth:
    def test_healthy_runtime_reports_none(self, small_network):
        simulator = _simulator(small_network)
        simulator.run(5)
        for runtime in simulator.backend.runtimes.values():
            assert runtime.health() is None

    def test_health_names_variable_and_indices(self, small_network):
        simulator = _simulator(small_network)
        runtime = simulator.backend.runtime("exc")
        runtime.state()["v"][7] = np.nan
        variable, indices = runtime.health()
        assert variable == "v"
        assert indices.tolist() == [7]
