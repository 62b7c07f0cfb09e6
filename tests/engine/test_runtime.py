"""CompiledRuntime under Euler must be bit-identical to the dict-state
reference.

The engine's whole value proposition is "same numbers, faster": every
registry feature model stepped through a compiled plan must produce
exactly the same fired masks and state trajectories as
``FeatureModel.step`` on dict state — not approximately, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import CompiledRuntime, SolverRuntime
from repro.engine.runtime import EXP_LIMIT
from repro.errors import ConfigurationError, SimulationError
from repro.features import Feature
from repro.models import ModelParameters
from repro.models.feature_model import FeatureModel
from repro.models.registry import available_models, create_model
from tests.engine.test_flow_plan import feature_sets, parameters, spread_start

DT = 1e-4
N = 64
STEPS = 300

PLANNABLE = [
    name for name in available_models() if name not in ("HH", "NativeIzhikevich")
]


def _drive(model, rng, steps=STEPS, n=N):
    """A spiky random input stream shaped for the model."""
    n_types = model.parameters.n_synapse_types
    drive = (rng.random((steps, n_types, n)) < 0.08) * rng.uniform(
        0.5, 40.0, (steps, n_types, n)
    )
    return drive


class TestBitIdentity:
    @pytest.mark.parametrize("name", PLANNABLE)
    def test_exactly_matches_feature_model_step(self, name, rng):
        model = create_model(name)
        inputs = _drive(model, rng)
        reference_state = model.initial_state(N)
        runtime = CompiledRuntime("p", N, model, "Euler")
        for step in range(STEPS):
            fired_ref = model.step(reference_state, inputs[step], DT)
            fired_eng = runtime.advance(inputs[step], DT)
            assert np.array_equal(fired_ref, fired_eng), (name, step)
            engine_state = runtime.state()
            assert set(engine_state) == set(reference_state)
            for var, values in reference_state.items():
                assert np.array_equal(values, engine_state[var]), (
                    name,
                    step,
                    var,
                )

    @pytest.mark.parametrize("name", PLANNABLE)
    def test_matches_euler_solver_runtime(self, name, rng):
        model = create_model(name)
        inputs = _drive(model, rng, steps=100)
        solver_rt = SolverRuntime("p", N, model, "Euler")
        compiled_rt = CompiledRuntime("p", N, model, "Euler")
        for step in range(100):
            fired_ref = solver_rt.advance(inputs[step], DT)
            fired_eng = compiled_rt.advance(inputs[step], DT)
            assert np.array_equal(fired_ref, fired_eng), (name, step)


class TestEulerKernelProperty:
    @given(
        feature_sets(decays=(Feature.EXD, Feature.LID)),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0, 1, 7, 300]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_feature_model_step(self, features, n_types, n, seed):
        """The whole feature lattice, LID included, against
        ``FeatureModel.step`` on dict state: every fired mask and state
        byte, from a spread-out start and across one ``dt`` change."""
        model = FeatureModel(features, parameters(n_types))
        compiled = CompiledRuntime("p", n, model, "Euler")
        oracle = SolverRuntime("p", n, model, "Euler")
        rng = np.random.default_rng(seed)
        start = spread_start(model, n, rng)
        compiled.load_state(start)
        oracle.load_state(start)
        for step in range(50):
            dt = DT if step < 25 else 2 * DT
            inputs = (rng.random((n_types, n)) < 0.15) * rng.uniform(
                0.0, 0.4, (n_types, n)
            )
            fired = compiled.advance(inputs.copy(), dt)
            np.testing.assert_array_equal(fired, oracle.advance(inputs, dt))
            assert list(compiled.state()) == list(oracle.state())
            for name, values in oracle.state().items():
                assert compiled.state()[name].tobytes() == values.tobytes(), (
                    step,
                    name,
                )


class TestCompiledRuntimeContract:
    def test_rejects_unplannable_model(self):
        with pytest.raises(SimulationError):
            CompiledRuntime("p", 4, create_model("HH"), "Euler")

    @staticmethod
    def _assert_tracks_euler(dts, rng):
        """Every plannable model's ``CompiledRuntime``, stepped through
        ``dts``, stays bit-equal to the Euler ``SolverRuntime``, which
        reads ``dt`` on every step."""
        for name in PLANNABLE:
            model = create_model(name)
            inputs = _drive(model, rng, steps=len(dts))
            compiled_rt = CompiledRuntime("p", N, model, "Euler")
            solver_rt = SolverRuntime("p", N, model, "Euler")
            for step, dt in enumerate(dts):
                fired_ref = solver_rt.advance(inputs[step], dt)
                fired_eng = compiled_rt.advance(inputs[step], dt)
                assert np.array_equal(fired_ref, fired_eng), (name, step)
                for var, values in solver_rt.state().items():
                    assert compiled_rt.state()[var].tobytes() == values.tobytes(), (
                        name,
                        step,
                        var,
                    )

    def test_plan_bound_lazily_on_first_advance(self, rng):
        """The kernel takes its constants from the first ``advance``'s
        ``dt``: a runtime first stepped at 2·DT matches Euler at 2·DT."""
        self._assert_tracks_euler([2 * DT] * 30, rng)

    def test_rebinds_when_dt_changes(self, rng):
        """Stepped at DT, then 2·DT, then DT again, every dt-dependent
        constant follows the change."""
        self._assert_tracks_euler([DT] * 30 + [2 * DT] * 30 + [DT] * 30, rng)

    def test_shape_mismatch_raises(self):
        runtime = CompiledRuntime("p", 4, create_model("LIF"), "Euler")
        with pytest.raises(SimulationError):
            runtime.advance(np.zeros((2, 5)), DT)

    def test_state_views_are_live(self):
        model = create_model("AdEx_COBA")
        runtime = CompiledRuntime("p", 8, model, "Euler")
        state = runtime.state()
        rng = np.random.default_rng(0)
        inputs = _drive(model, rng, steps=20, n=8)
        before = state["v"].copy()
        for step in range(20):
            runtime.advance(inputs[step], DT)
        assert not np.array_equal(before, state["v"])
        assert state["v"] is runtime.state()["v"]

    def test_load_state_round_trips(self):
        model = create_model("IF_cond_exp_gsfa_grr")
        runtime = CompiledRuntime("p", 8, model, "Euler")
        snapshot = {
            name: np.random.default_rng(1).normal(size=8)
            for name in runtime.state()
        }
        runtime.load_state(snapshot)
        for name, values in snapshot.items():
            assert np.array_equal(runtime.state()[name], values)

    def test_counts_advances(self):
        runtime = CompiledRuntime("p", 4, create_model("LIF"), "Euler")
        for _ in range(7):
            runtime.advance(np.zeros((2, 4)), DT)
        assert runtime.advances == 7
        assert runtime.evaluations_per_step() == 1.0

    @pytest.mark.parametrize("runtime_class", [CompiledRuntime, SolverRuntime])
    @pytest.mark.parametrize("solver", ["Euler", "RKF45"])
    def test_an_exi_exponent_past_float64_is_refused(self, runtime_class, solver):
        # exi_cap = (v_theta - theta) / delta_t + 2 must stay within
        # float64's exp; the error offers the smallest delta_t that does.
        narrow = create_model("EIF", ModelParameters(delta_t=0.001))
        with pytest.raises(ConfigurationError, match=r"delta_t >= 0\.00142"):
            runtime_class("eif", 2, narrow, solver)
        for delta_t in (0.00142, 0.133):
            model = create_model("EIF", ModelParameters(delta_t=delta_t))
            assert model.parameters.exi_cap <= EXP_LIMIT
            runtime_class("eif", 2, model, solver)
