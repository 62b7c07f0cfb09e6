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
functional form) and both population runtimes under RKF45
(:class:`~repro.engine.runtime.SolverRuntime`, dict state, the oracle;
:class:`~repro.engine.runtime.CompiledRuntime`, the lowered path) all
drive it, so the Fehlberg tableau and the step-size controller exist
once.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NumericsError, SimulationError

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

#: The tolerances of a population step (:meth:`RKF45Stepper.integrate`'s
#: defaults): both software runtimes integrate one ``dt`` per step.
RTOL = 1e-5
ATOL = 1e-8

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

    The last axis may be partitioned into *members* — the populations
    of a fused block, each a column range. A member's step is exactly
    the step a stepper over its columns alone would take: the first
    trial runs once over every column, each member's error is the
    max-norm over its own columns, and a member that rejects continues
    alone with its own ``t``, ``h`` and evaluation count, on a
    contiguous copy of its columns (a stepper of its own, allocated at
    its first rejection: numpy's elementwise calls over a strided
    column view cost two to three times a contiguous block's).

    The floating-point operations and their order are a contract (see
    DESIGN.md §3b "Adaptive lowering"): stage states accumulate
    ``y + (h*a_0)*k_0 + (h*a_1)*k_1 + ...`` term by term, left to
    right, and a substep is accepted or rejected per member.

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
        #: A contiguous stepper per member column range that has had to
        #: continue alone (allocated on its first rejection).
        self._alone: Dict[Tuple[int, int], "RKF45Stepper"] = {}

    def integrate(
        self,
        f: FlowFunction,
        t0: float,
        t1: float,
        rtol: float = RTOL,
        atol: float = ATOL,
        h0: float = 0.0,
        max_steps: int = 10_000,
        members: Optional[Sequence[Tuple[str, int, int]]] = None,
    ) -> List[int]:
        """Advance ``self.y`` from ``t0`` to ``t1``; return each
        member's number of derivative evaluations.

        ``members`` are ``(name, lo, hi)`` column ranges of the last
        axis, in order (default: one unnamed member, every column).
        The first trial runs over every column. A member that must go
        on (it rejected, or ``h0`` is shorter than the span) continues
        alone on a contiguous copy of its columns, so ``f`` is handed
        blocks of the full width or of one member's: it must size any
        scratch of its own by the ``y`` it is given.

        Raises :class:`~repro.errors.NumericsError` as soon as a
        member's error estimate is not finite (no step size recovers a
        NaN state) — ``population`` is the member's name, ``indices``
        count from its first column — and
        :class:`~repro.errors.SimulationError` if a member cannot reach
        ``t1`` within ``max_steps`` attempted substeps (genuine
        stiffness). Members finish in order, so the first failing
        member raises.
        """
        width = self.y.shape[-1]
        if members is None:
            members = (("", 0, width),)
        t = float(t0)
        span = float(t1) - t
        if span <= 0.0:
            return [0] * len(members)
        h = min(h0 if h0 > 0.0 else span, span)
        self._attempt(f, t, h, rtol, atol)
        if t + h >= t1 and _max_norm(self._scratch2) <= 1.0:
            # Every member accepts the whole step: no per-member work.
            np.copyto(self.y, self.y5)
            return [6] * len(members)
        evaluations = []
        for name, lo, hi in members:
            columns = (Ellipsis, slice(lo, hi))
            y = self.y[columns]
            t_m, h_m = self._settle(
                y, self.y5[columns], self._scratch2[columns], t, h, name
            )
            count = 6
            if t_m < t1 and (lo, hi) == (0, width):  # one member: in place
                count += self._run(f, t_m, t1, h_m, rtol, atol, max_steps, name)
            elif t_m < t1:
                member = self._member(lo, hi)
                np.copyto(member.y, y)
                count += member._run(f, t_m, t1, h_m, rtol, atol, max_steps, name)
                np.copyto(y, member.y)
            evaluations.append(count)
        return evaluations

    def _member(self, lo: int, hi: int) -> "RKF45Stepper":
        member = self._alone.get((lo, hi))
        if member is None:
            shape = self.y.shape[:-1] + (hi - lo,)
            member = self._alone[lo, hi] = RKF45Stepper(shape, self.names)
        return member

    def _run(self, f: FlowFunction, t: float, t1: float, h: float,
             rtol: float, atol: float, max_steps: int, name: str) -> int:
        """Step ``self.y`` from ``t`` to ``t1`` starting at step size
        ``h``, the first of ``max_steps`` attempts already made; return
        the evaluations of the others."""
        evaluations = 0
        for _ in range(1, max_steps):
            if t >= t1:
                return evaluations
            h = min(h, t1 - t)
            self._attempt(f, t, h, rtol, atol)
            evaluations += 6
            t, h = self._settle(self.y, self.y5, self._scratch2, t, h, name)
        if t >= t1:
            return evaluations
        raise SimulationError(
            f"RKF45 failed to reach t={t1} within {max_steps} substeps"
        )

    def _attempt(self, f: FlowFunction, t: float, h: float,
                 rtol: float, atol: float) -> None:
        """One trial substep of size ``h`` over the whole workspace:
        ``y5``, ``y4`` and the error ratio ``|y5 - y4| / scale`` (in the
        second scratch block) from ``y``."""
        y, y_stage, y5, y4, k = self.y, self.y_stage, self.y5, self.y4, self.k
        term, ratio = self._scratch, self._scratch2
        f(t, y, k[0])
        for stage in range(1, 6):
            partial = y  # y + the first term lands in y_stage
            for j, a in enumerate(_A[stage]):
                np.multiply(k[j], h * a, out=term)
                np.add(partial, term, out=y_stage)
                partial = y_stage
            f(t + h * _C[stage], y_stage, k[stage])
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

    def _settle(self, y: np.ndarray, y5: np.ndarray, ratio: np.ndarray,
                t: float, h: float, name: str) -> Tuple[float, float]:
        """Accept (``y5`` into ``y``) or reject a trial of size ``h`` at
        ``t`` on its error ratio; return the next ``(t, h)``."""
        error = _max_norm(ratio)
        if error <= 1.0:
            np.copyto(y, y5)
            grow = _SAFETY * (error ** -0.2) if error > 0.0 else _MAX_SCALE
            return t + h, h * min(_MAX_SCALE, max(_MIN_SCALE, grow))
        if math.isfinite(error):
            return t, h * max(_MIN_SCALE, _SAFETY * (error ** -0.2))
        raise self._non_finite(t, y, ratio, name)

    def _non_finite(
        self, t: float, y: np.ndarray, ratio: np.ndarray, name: str
    ) -> NumericsError:
        """Name the first bad variable: in ``y`` if the state itself is
        non-finite, else in the trial step's error ratio."""
        bad = ~np.isfinite(y)
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
            population=name,
            variable=variable,
            indices=indices,
        )


def _max_norm(ratio: np.ndarray) -> float:
    return float(ratio.max()) if ratio.size else 0.0


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

    (evaluations,) = stepper.integrate(
        flow, t0, t1, rtol=rtol, atol=atol, h0=h0, max_steps=max_steps
    )
    return stepper.y, evaluations
