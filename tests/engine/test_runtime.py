"""CompiledRuntime must be bit-identical to the dict-state reference.

The engine's whole value proposition is "same numbers, faster": every
registry feature model stepped through a compiled plan must produce
exactly the same fired masks and state trajectories as
``FeatureModel.step`` on dict state — not approximately, bit for bit.
"""

import numpy as np
import pytest

from repro.engine import CompiledRuntime, SolverRuntime
from repro.errors import SimulationError
from repro.models.registry import available_models, create_model
from repro.solvers import create_solver

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
        runtime = CompiledRuntime("p", N, model)
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
        solver_rt = SolverRuntime("p", N, model, create_solver("Euler"))
        compiled_rt = CompiledRuntime("p", N, model)
        for step in range(100):
            fired_ref = solver_rt.advance(inputs[step], DT)
            fired_eng = compiled_rt.advance(inputs[step], DT)
            assert np.array_equal(fired_ref, fired_eng), (name, step)


class TestCompiledRuntimeContract:
    def test_rejects_unplannable_model(self):
        with pytest.raises(SimulationError):
            CompiledRuntime("p", 4, create_model("HH"))

    @staticmethod
    def _assert_tracks_euler(dts, rng):
        """Every plannable model's ``CompiledRuntime``, stepped through
        ``dts``, stays bit-equal to the Euler ``SolverRuntime``, which
        reads ``dt`` on every step."""
        for name in PLANNABLE:
            model = create_model(name)
            inputs = _drive(model, rng, steps=len(dts))
            compiled_rt = CompiledRuntime("p", N, model)
            solver_rt = SolverRuntime("p", N, model, create_solver("Euler"))
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
        runtime = CompiledRuntime("p", 4, create_model("LIF"))
        with pytest.raises(SimulationError):
            runtime.advance(np.zeros((2, 5)), DT)

    def test_state_views_are_live(self):
        model = create_model("AdEx_COBA")
        runtime = CompiledRuntime("p", 8, model)
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
        runtime = CompiledRuntime("p", 8, model)
        snapshot = {
            name: np.random.default_rng(1).normal(size=8)
            for name in runtime.state()
        }
        runtime.load_state(snapshot)
        for name, values in snapshot.items():
            assert np.array_equal(runtime.state()[name], values)

    def test_counts_advances(self):
        runtime = CompiledRuntime("p", 4, create_model("LIF"))
        for _ in range(7):
            runtime.advance(np.zeros((2, 4)), DT)
        assert runtime.advances == 7
        assert runtime.evaluations_per_step() == 1.0
