"""Tests for the Euler and RKF45 solvers: their names, the RKF45
integrator, and the dict-state runtime that steps a population under
either (``SolverRuntime(name, n, model, "Euler" | "RKF45")``)."""

import numpy as np
import pytest

from repro.engine import CompiledRuntime, SolverRuntime
from repro.errors import ConfigurationError, NumericsError, SimulationError
from repro.frontend import build_backend, build_simulation
from repro.hardware.backend import HybridBackend
from repro.models import ModelParameters, create_model
from repro.models.feature_model import FeatureModel
from repro.features import Feature, FeatureSet
from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.solvers import SOLVER_NAMES, canonical_solver_name
from repro.solvers.rkf45 import RKF45Stepper

DT = 1e-4


def _runtime(model, n, solver):
    """One population of ``model`` on the dict-state runtime."""
    return SolverRuntime("p", n, model, solver)


def _loaded(y0):
    """An RKF45 stepper whose ``y`` starts at ``y0``."""
    y0 = np.asarray(y0, dtype=np.float64)
    stepper = RKF45Stepper(y0.shape)
    stepper.y[...] = y0
    return stepper


class TestCreateSolver:
    """A solver is chosen by its Table I name."""

    def test_names(self):
        assert SOLVER_NAMES == ("Euler", "RKF45")
        assert canonical_solver_name("Euler") == "Euler"
        assert canonical_solver_name("RKF45") == "RKF45"
        assert canonical_solver_name("euler") == "Euler"
        assert _runtime(create_model("LIF"), 1, "rkf45").solver == "RKF45"

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="Euler, RKF45"):
            canonical_solver_name("RK4")
        with pytest.raises(ConfigurationError, match="'RK4'"):
            _runtime(create_model("LIF"), 1, "RK4")

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: ReferenceBackend("RK4"),
            lambda: HybridBackend(solver="RK4"),
            lambda: build_backend({"backend": "reference", "solver": "RK4"}),
            lambda: build_backend({"backend": "folded", "solver": "RK4"}),
            lambda: build_backend({"solver": 4}),
        ],
    )
    def test_backends_reject_unknown_solver_where_it_is_given(self, construct):
        with pytest.raises(ConfigurationError, match="Euler, RKF45"):
            construct()

    def test_solver_name_is_case_insensitive_and_canonicalised(self):
        assert ReferenceBackend("rkf45").solver_name == "RKF45"
        assert ReferenceBackend("rkf45").name == "reference-rkf45"
        assert HybridBackend(solver="EULER").solver_name == "Euler"


@pytest.mark.parametrize("solver, default", [("Euler", 1.0), ("RKF45", 6.0)])
def test_evaluations_per_step_before_the_first_step(solver, default):
    # One step's minimum, for the cost models, before any step is taken.
    for model in ("LIF", "AdEx"):
        runtime = _runtime(create_model(model), 2, solver)
        assert runtime.evaluations_per_step() == default
        compiled = CompiledRuntime("p", 2, create_model(model), solver)
        assert compiled.evaluations_per_step() == default


class TestEulerSolver:
    """Euler on the dict-state runtime is the model's own ``step``."""

    def test_counts_one_evaluation_per_step(self):
        runtime = _runtime(create_model("LIF"), 3, "Euler")
        for _ in range(10):
            runtime.advance(np.zeros((2, 3)), DT)
        assert runtime.evaluations_per_step() == 1.0
        assert (runtime.evaluations, runtime.advances) == (10, 10)

    def test_matches_model_step(self):
        model = create_model("LIF")
        runtime = _runtime(model, 2, "Euler")
        state_b = model.initial_state(2)
        inputs = np.full((2, 2), 10.0)
        fired_a = runtime.advance(inputs.copy(), DT)
        fired_b = model.step(state_b, inputs.copy(), DT)
        np.testing.assert_array_equal(fired_a, fired_b)
        np.testing.assert_array_equal(runtime.state()["v"], state_b["v"])


class TestRKF45Integrate:
    def test_exponential_decay_accuracy(self):
        # dy/dt = -10 y; exact: y0 * exp(-10 t)
        stepper = _loaded([1.0])
        (evaluations,) = stepper.integrate(
            lambda _t, y, out: np.multiply(y, -10.0, out=out),
            0.0, 0.5, rtol=1e-8, atol=1e-12,
        )
        assert stepper.y[0] == pytest.approx(np.exp(-5.0), rel=1e-6)
        assert evaluations % 6 == 0

    def test_harmonic_oscillator_conserves_energy(self):
        def flow(_t, y, out):
            out[0], out[1] = y[1], -y[0]

        y0 = np.array([1.0, 0.0])
        stepper = _loaded(y0)
        stepper.integrate(flow, 0.0, 2 * np.pi, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(stepper.y, y0, atol=1e-5)

    def test_adaptive_takes_fewer_steps_for_smooth_problems(self):
        (easy,) = _loaded([1.0]).integrate(
            lambda _t, y, out: np.negative(y, out=out),
            0.0, 1.0, rtol=1e-6, atol=1e-9,
        )
        (hard,) = _loaded([1.0]).integrate(
            lambda _t, y, out: np.multiply(y, -200.0, out=out),
            0.0, 1.0, rtol=1e-6, atol=1e-9,
        )
        assert easy < hard

    def test_zero_span_is_identity(self):
        stepper = _loaded([3.0])
        (evaluations,) = stepper.integrate(
            lambda _t, y, out: np.copyto(out, y),
            1.0, 1.0, rtol=1e-6, atol=1e-9,
        )
        assert stepper.y[0] == 3.0
        assert evaluations == 0

    def test_does_not_write_into_y0(self):
        y0 = np.array([1.0, 2.0])
        stepper = _loaded(y0)
        stepper.integrate(
            lambda _t, y, out: np.negative(y, out=out),
            0.0, 0.1, rtol=1e-6, atol=1e-9,
        )
        assert stepper.y is not y0
        np.testing.assert_array_equal(y0, [1.0, 2.0])

    def test_stepper_advances_its_own_block_in_place(self):
        start = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        stepper = RKF45Stepper(start.shape)
        stepper.y[:] = start
        block = stepper.y

        def flow(_t, y, out):
            np.negative(y, out=out)

        (evaluations,) = stepper.integrate(flow, 0.0, 0.1, rtol=1e-9, atol=1e-12)
        assert stepper.y is block
        assert evaluations % 6 == 0
        np.testing.assert_allclose(block[0], np.exp(-0.1) * np.arange(1, 4), rtol=1e-8)
        # ... and a fresh stepper from the same start repeats it.
        again = _loaded(start)
        (count,) = again.integrate(flow, 0.0, 0.1, rtol=1e-9, atol=1e-12)
        assert count == evaluations
        assert again.y.tobytes() == block.tobytes()

    def test_non_finite_state_fails_on_the_first_attempt(self):
        calls = []

        def flow(_t, y, out):
            calls.append(1)
            np.negative(y, out=out)

        with pytest.raises(NumericsError, match="not finite") as info:
            _loaded([1.0, np.nan, 2.0]).integrate(
                flow, 0.0, 1.0, rtol=1e-6, atol=1e-9
            )
        assert len(calls) == 6  # one attempted substep, not 10,000
        assert info.value.variable == "y"
        assert info.value.indices == (1,)

    @pytest.mark.parametrize("h0", [0.0, 0.02])
    def test_members_step_as_their_own_steppers_would(self, h0):
        # Row 0 decays at the rate held in row 1. Columns 0:3 decay
        # gently, 3:5 stiffly, 5:6 not at all: the first member accepts
        # the first trial, the second rejects it and continues alone.
        start = np.array(
            [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 300.0, 500.0, 0.0]]
        )
        members = (("a", 0, 3), ("b", 3, 5), ("c", 5, 6))

        def flow(_t, y, out):
            np.multiply(y[1], y[0], out=out[0])
            np.negative(out[0], out=out[0])
            out[1].fill(0.0)

        alone = []
        for _, lo, hi in members:
            stepper = RKF45Stepper((2, hi - lo))
            stepper.y[:] = start[:, lo:hi]
            (count,) = stepper.integrate(flow, 0.0, 0.1, h0=h0)
            alone.append((stepper.y.tobytes(), count))
        block = RKF45Stepper(start.shape)
        block.y[:] = start
        counts = block.integrate(flow, 0.0, 0.1, h0=h0, members=members)
        together = [
            (np.ascontiguousarray(block.y[:, lo:hi]).tobytes(), count)
            for (_, lo, hi), count in zip(members, counts)
        ]
        assert together == alone
        assert counts[0] < counts[1]

    def test_a_member_fails_under_its_own_name_and_indices(self):
        stepper = RKF45Stepper((2, 6), names=("v", "g"))
        stepper.y[1, 4] = np.nan
        with pytest.raises(NumericsError) as info:
            stepper.integrate(
                lambda _t, y, out: np.negative(y, out=out),
                0.0,
                0.1,
                members=(("exc", 0, 3), ("inh", 3, 6)),
            )
        assert info.value.population == "inh"
        assert info.value.variable == "g"
        assert info.value.indices == (1,)

    def test_max_steps_exceeded_raises(self):
        with pytest.raises(SimulationError, match="within 3 substeps"):
            _loaded([1.0]).integrate(
                lambda _t, y, out: np.multiply(y, -1e9, out=out),
                0.0,
                1.0,
                rtol=1e-13,
                atol=1e-16,
                max_steps=3,
            )


class TestRKF45Solver:
    """RKF45 on the dict-state runtime: input jumps, the stepper over
    ``model.derivatives``, then ``model.fire_and_reset``."""

    def test_lif_cub_jumps_drive_firing(self):
        # In the continuous formulation CUB inputs are instantaneous
        # jumps: accumulating 0.4 per step crosses threshold quickly.
        runtime = _runtime(create_model("LIF", ModelParameters(tau=20e-3)), 1, "RKF45")
        inputs = np.zeros((2, 1))
        inputs[0, 0] = 0.4
        fired_any = any(runtime.advance(inputs.copy(), DT)[0] for _ in range(30))
        assert fired_any

    def test_decay_only_agreement(self):
        model = create_model("LIF", ModelParameters(tau=20e-3))
        euler = _runtime(model, 1, "Euler")
        rkf = _runtime(model, 1, "RKF45")
        euler.state()["v"][:] = 0.8
        rkf.state()["v"][:] = 0.8
        zeros = np.zeros((2, 1))
        for _ in range(100):
            euler.advance(zeros.copy(), DT)
            rkf.advance(zeros.copy(), DT)
        # Both approximate 0.8 exp(-t/tau); Euler carries O(dt) error.
        exact = 0.8 * np.exp(-100 * DT / 20e-3)
        assert rkf.state()["v"][0] == pytest.approx(exact, rel=1e-5)
        assert euler.state()["v"][0] == pytest.approx(exact, rel=1e-2)

    def test_counts_evaluations(self):
        runtime = _runtime(create_model("AdEx"), 2, "RKF45")
        for _ in range(5):
            runtime.advance(np.zeros((2, 2)), DT)
        assert runtime.advances == 5
        assert runtime.evaluations % 6 == 0
        assert runtime.evaluations_per_step() >= 6.0

    def test_fires_and_resets(self):
        runtime = _runtime(create_model("LIF"), 1, "RKF45")
        runtime.state()["v"][:] = 1.5  # above threshold
        fired = runtime.advance(np.zeros((2, 1)), DT)
        assert fired[0]
        assert runtime.state()["v"][0] == 0.0

    def test_lid_has_no_continuous_form(self):
        # Model level: LLIF refuses to produce derivatives.
        model = create_model("LLIF")
        with pytest.raises(NotImplementedError):
            model.derivatives(model.initial_state(1))
        # Runtime level: refused when built, before step 0.
        with pytest.raises(ConfigurationError, match="'p': model 'LLIF'"):
            _runtime(model, 1, "RKF45")
        # Backend level: rejected at prepare(), naming what to change.
        network = Network("lid")
        network.add_population("leaky", 4, "LLIF")
        for backend in (
            ReferenceBackend("RKF45"),
            ReferenceBackend("RKF45", use_engine=False),
        ):
            with pytest.raises(ConfigurationError) as info:
                backend.prepare(network)
            message = str(info.value)
            for needle in ("'leaky'", "'LLIF'", "LID", 'solver: "Euler"'):
                assert needle in message
        # ... and before a front-end run prints anything.
        with pytest.raises(ConfigurationError, match="LID"):
            build_simulation(
                {
                    "backend": "reference",
                    "solver": "RKF45",
                    "populations": [{"name": "leaky", "n": 4, "model": "LLIF"}],
                }
            )
        ReferenceBackend("Euler").prepare(network)  # the remedy works

    def test_hybrid_rejects_rkf45_on_a_model_without_fire_reset(self):
        network = Network("hh")
        network.add_population("hh", 3, "HH")
        with pytest.raises(ConfigurationError, match="fire/reset"):
            HybridBackend(solver="RKF45").prepare(network)
        HybridBackend(solver="Euler").prepare(network)

    @pytest.mark.parametrize("use_engine", [True, False])
    def test_nan_state_raises_structured_error_at_once(self, use_engine):
        network = Network("nan")
        network.add_population("pop", 50, "DLIF")
        backend = ReferenceBackend("RKF45", use_engine=use_engine)
        backend.prepare(network)
        inputs = np.zeros((2, 50))
        for _ in range(3):
            backend.advance("pop", inputs, DT)
        backend.state_of("pop")["g1"][[7, 31]] = np.nan
        runtime = backend.runtimes["pop"]
        before = runtime.evaluations
        with pytest.raises(NumericsError) as info:
            backend.advance("pop", inputs, DT)
        error = info.value
        assert (error.population, error.step, error.variable) == ("pop", 3, "g1")
        assert error.indices == (7, 31)
        assert "'pop'" in str(error) and "step 3" in str(error)
        assert runtime.evaluations == before  # nothing charged
        assert type(runtime) is (CompiledRuntime if use_engine else SolverRuntime)

    def test_conductance_jump_goes_to_g(self):
        model = FeatureModel(
            FeatureSet([Feature.EXD, Feature.COBE]), ModelParameters()
        )
        runtime = _runtime(model, 1, "RKF45")
        inputs = np.zeros((2, 1))
        inputs[0, 0] = 0.5
        runtime.advance(inputs, DT)
        assert runtime.state()["g0"][0] > 0.4  # jumped then decayed slightly
