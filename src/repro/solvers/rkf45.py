"""Runge-Kutta-Fehlberg 4(5) adaptive solver.

Implements the embedded RKF45 pair (Fehlberg 1969, the paper's
reference [37]) with standard step-size control. Within each simulation
time step the smooth dynamics are integrated adaptively; input-spike
jumps and fire/reset events are applied at step boundaries, mirroring
how NEST treats spiking discontinuities with adaptive solvers.

The per-advance derivative-evaluation count (6 per attempted substep,
more when steps are rejected) feeds the CPU/GPU cost models: it is the
mechanism by which RKF45 workloads show larger neuron-computation
shares in Figure 3.

There is one integrator: :class:`RKF45Stepper`, an in-place stepper
over a workspace allocated once. :func:`rkf45_integrate` (the
functional form), :meth:`RKF45Solver.advance` (dict state, the oracle)
and the engine's lowered path
(:class:`~repro.engine.runtime.CompiledRuntime` under RKF45) all drive
it, so the Fehlberg tableau and the step-size controller exist once.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NumericsError, SimulationError
from repro.models.base import NeuronModel, State
from repro.solvers.base import Solver

# Fehlberg's classic coefficients.
_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
#: Stage abscissae (row sums of the tableau).
_C = tuple(sum(row) for row in _A)
#: 5th-order weights (the propagated solution).
_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
#: 4th-order weights (for the error estimate).
_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)

_SAFETY = 0.9
_MIN_SCALE = 0.2
_MAX_SCALE = 5.0

#: In-place right-hand side: write ``dy/dt`` at ``(t, y)`` into ``out``.
#: ``y`` and ``out`` are workspace blocks; ``f`` must not keep them.
FlowFunction = Callable[[float, np.ndarray, np.ndarray], None]


class RKF45Stepper:
    """The RKF45 integrator over a workspace allocated once.

    ``y`` holds the solution and is advanced in place — callers that
    want zero-copy integration make their state arrays views of it.
    Every other block (``y_stage``, ``y5``, ``y4``, the six ``k``
    stages, two scratch blocks) has ``y``'s shape and is reused by
    every substep, so :meth:`integrate` allocates nothing that scales
    with the problem size.

    The floating-point operations and their order are a contract (see
    DESIGN.md §3b "Adaptive lowering"): stage states accumulate
    ``y + (h*a_0)*k_0 + (h*a_1)*k_1 + ...`` term by term, left to
    right, the error is one max-norm over the whole block, and a
    substep is accepted or rejected for the whole block at once.

    ``names`` optionally labels the rows of a 2-D block so a non-finite
    state can be reported by variable name.
    """

    def __init__(
        self, shape: Tuple[int, ...], names: Optional[Sequence[str]] = None
    ) -> None:
        self.y = np.zeros(shape, dtype=np.float64)
        self.y_stage = np.empty_like(self.y)
        self.y5 = np.empty_like(self.y)
        self.y4 = np.empty_like(self.y)
        self.k = np.empty((6,) + self.y.shape, dtype=np.float64)
        self._scratch = np.empty_like(self.y)
        self._scratch2 = np.empty_like(self.y)
        self.names = tuple(names) if names is not None else None

    def integrate(
        self,
        f: FlowFunction,
        t0: float,
        t1: float,
        rtol: float = 1e-6,
        atol: float = 1e-9,
        h0: float = 0.0,
        max_steps: int = 10_000,
    ) -> int:
        """Advance ``self.y`` from ``t0`` to ``t1``; return the number
        of derivative evaluations performed.

        Raises :class:`~repro.errors.NumericsError` as soon as the
        error estimate is not finite (no step size recovers a NaN
        state), and :class:`~repro.errors.SimulationError` if the
        controller cannot reach ``t1`` within ``max_steps`` attempted
        substeps (genuine stiffness).
        """
        t = float(t0)
        span = float(t1) - t
        if span <= 0.0:
            return 0
        y, y_stage, y5, y4, k = self.y, self.y_stage, self.y5, self.y4, self.k
        term, ratio = self._scratch, self._scratch2
        h = h0 if h0 > 0.0 else span
        evaluations = 0
        for _ in range(max_steps):
            if t >= t1:
                return evaluations
            h = min(h, t1 - t)
            f(t, y, k[0])
            for stage in range(1, 6):
                partial = y  # y + the first term lands in y_stage
                for j, a in enumerate(_A[stage]):
                    np.multiply(k[j], h * a, out=term)
                    np.add(partial, term, out=y_stage)
                    partial = y_stage
                f(t + h * _C[stage], y_stage, k[stage])
            evaluations += 6
            partial5 = partial4 = y
            for weight5, weight4, ki in zip(_B5, _B4, k):
                if weight5:
                    np.multiply(ki, h * weight5, out=term)
                    np.add(partial5, term, out=y5)
                    partial5 = y5
                if weight4:
                    np.multiply(ki, h * weight4, out=term)
                    np.add(partial4, term, out=y4)
                    partial4 = y4
            # scale = atol + rtol * max(|y|, |y5|), built in `term`
            np.abs(y, out=term)
            np.abs(y5, out=ratio)
            np.maximum(term, ratio, out=term)
            term *= rtol
            term += atol
            np.subtract(y5, y4, out=ratio)
            np.abs(ratio, out=ratio)
            ratio /= term
            error = float(ratio.max()) if ratio.size else 0.0
            if error <= 1.0:
                t += h
                np.copyto(y, y5)
                grow = _SAFETY * (error ** -0.2) if error > 0.0 else _MAX_SCALE
                h *= min(_MAX_SCALE, max(_MIN_SCALE, grow))
            elif math.isfinite(error):
                h *= max(_MIN_SCALE, _SAFETY * (error ** -0.2))
            else:
                raise self._non_finite(t, ratio)
        raise SimulationError(
            f"RKF45 failed to reach t={t1} within {max_steps} substeps"
        )

    def _non_finite(self, t: float, ratio: np.ndarray) -> NumericsError:
        """Name the first bad variable: in ``y`` if the state itself is
        non-finite, else in the trial step's error ratio."""
        bad = ~np.isfinite(self.y)
        if not bad.any():
            bad = ~np.isfinite(ratio)
        if bad.ndim == 2:
            row = int(np.argmax(bad.any(axis=1)))
            variable = self.names[row] if self.names else f"y[{row}]"
            indices = np.nonzero(bad[row])[0]
        else:
            variable = "y"
            indices = np.nonzero(bad.ravel())[0]
        return NumericsError(
            f"RKF45 error estimate is not finite at t={t}: variable "
            f"{variable!r} is non-finite at {indices.size} index(es), "
            f"first {indices[:8].tolist()}",
            variable=variable,
            indices=indices,
        )


def rkf45_integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    h0: float = 0.0,
    max_steps: int = 10_000,
) -> Tuple[np.ndarray, int]:
    """Integrate ``dy/dt = f(t, y)`` from ``t0`` to ``t1`` adaptively.

    Returns ``(y(t1), n_evaluations)``. A thin wrapper over
    :class:`RKF45Stepper` for a value-returning ``f``; raises as
    :meth:`RKF45Stepper.integrate` does.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    stepper = RKF45Stepper(y0.shape)
    stepper.y[...] = y0

    def flow(t: float, y: np.ndarray, out: np.ndarray) -> None:
        out[...] = f(t, y)

    evaluations = stepper.integrate(
        flow, t0, t1, rtol=rtol, atol=atol, h0=h0, max_steps=max_steps
    )
    return stepper.y, evaluations


class RKF45Solver(Solver):
    """Adaptive RKF45 integration of a model's smooth dynamics.

    Per simulation step: apply input jumps, integrate the continuous
    part over ``dt`` adaptively, then run the fire/reset phase.
    :meth:`advance` is the dict-state form — it copies the state into a
    stepper workspace, evaluates ``model.derivatives`` on dict
    snapshots, and copies the result back. It works for any model with
    a continuous form and is the oracle the engine's lowering is
    pinned against; both count their work through :meth:`integrate`.
    """

    name = "RKF45"

    def __init__(self, rtol: float = 1e-5, atol: float = 1e-8):
        super().__init__()
        self.rtol = rtol
        self.atol = atol
        self._stepper: Optional[RKF45Stepper] = None

    def integrate(self, stepper: RKF45Stepper, f: FlowFunction, dt: float) -> None:
        """One simulation step of smooth flow on ``stepper.y``, charged
        to this solver's evaluation/advance counters."""
        self.evaluations += stepper.integrate(
            f, 0.0, dt, rtol=self.rtol, atol=self.atol, h0=dt
        )
        self.advances += 1

    def advance(
        self,
        model: NeuronModel,
        state: State,
        inputs: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        model.apply_input_jumps(state, inputs)
        names = tuple(state)
        shape = (len(names),) + state[names[0]].shape
        stepper = self._stepper
        if stepper is None or stepper.y.shape != shape or stepper.names != names:
            stepper = self._stepper = RKF45Stepper(shape, names)
        for i, name in enumerate(names):
            stepper.y[i] = state[name]

        def rhs(_t: float, y: np.ndarray, out: np.ndarray) -> None:
            deriv = model.derivatives(
                {name: y[i] for i, name in enumerate(names)}
            )
            for i, name in enumerate(names):
                out[i] = deriv.get(name, 0.0)

        self.integrate(stepper, rhs, dt)
        for i, name in enumerate(names):
            state[name][:] = stepper.y[i]
        return model.fire_and_reset(state, dt)

    def evaluations_per_step(self) -> float:
        if self.advances == 0:
            return 6.0  # one accepted substep minimum
        return self.evaluations / self.advances
