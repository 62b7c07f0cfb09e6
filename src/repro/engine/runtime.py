"""PopulationRuntime: the one execution seam every backend runs through.

A :class:`PopulationRuntime` owns one population's state and advances
it one step per call. The simulator's neuron-computation phase only
ever talks to this interface, so the reference float path, the
fixed-point hardware models, and any future executor plug in behind the
same contract:

* :class:`CompiledRuntime` — the engine fast path: a precompiled
  :class:`~repro.engine.plan.StepPlan` executed over preallocated
  structure-of-arrays state with reusable scratch buffers. This is the
  compile-once/step-many discipline of GeNN-style simulators, and it is
  bit-identical to ``FeatureModel.step``.
* :class:`SolverRuntime` — the general path: named state advanced by
  a :class:`~repro.solvers.Solver` (forward Euler calling
  ``model.step``, or RKF45 keeping its smooth/jump split). Models the
  plan compilers cannot express (Hodgkin-Huxley, native Izhikevich) run
  here on dict-of-arrays state, and so does every population under
  ``ReferenceBackend(use_engine=False)``. Under RKF45,
  :meth:`SolverRuntime.lowered` is the adaptive fast path: the same
  runtime and solver, with the state re-seated onto the stepper's SoA
  block and a compiled :class:`~repro.engine.plan.FlowPlan` evaluated
  in place — bit-identical to ``model.derivatives``.
* ``HardwareRuntime`` (in :mod:`repro.hardware.backend`) — quantises
  inputs and steps a Flexon / folded-Flexon array model.

Registering a new backend therefore means implementing one
``build_runtime(population)`` hook; see DESIGN.md's "Engine layer".
"""

from __future__ import annotations

import abc
import copy
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, NumericsError, SimulationError
from repro.features import Feature
from repro.models.base import NeuronModel, State
from repro.models.feature_model import FeatureModel
from repro.engine.plan import (
    FlowPlan,
    StepPlan,
    compile_flow_plan,
    compile_step_plan,
    supports_step_plan,
)
from repro.solvers.base import Solver
from repro.solvers.rkf45 import RKF45Solver, RKF45Stepper

#: Absolute state value beyond which a float runtime is considered
#: divergent. The shift-and-scale normalisation keeps healthy membrane
#: potentials within a few units of [0, 1] and conductances far below
#: this, so the bound trips only on genuine blow-ups, never on
#: legitimate dynamics.
DIVERGENCE_LIMIT = 1e6


class PopulationRuntime(abc.ABC):
    """Owns one population's state; advances it one step at a time."""

    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.n = n
        #: The fused block this runtime is a column view of (see
        #: :meth:`split`); ``None`` for a runtime that is stepped itself.
        self.block: Optional["PopulationRuntime"] = None

    @abc.abstractmethod
    def advance(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        """Consume this step's ``(n_synapse_types, n)`` accumulated
        input, update the state in place, and return the fired mask.

        The returned array may be a reused buffer: consume it (record,
        ``np.nonzero``) before the next ``advance`` call.
        """

    # -- fusion seam -------------------------------------------------------

    def split(
        self, members: Sequence[Tuple[str, int, int]]
    ) -> List["PopulationRuntime"]:
        """One runtime of this class per ``(name, lo, hi)`` member, its
        state the columns ``lo:hi`` of this block's storage.

        A member view carries everything that is per population — name,
        size, ``state()``, ``snapshot()`` / ``restore()``, ``health()``,
        its metrics — and is never stepped: the block is. Only runtimes
        whose step treats every column alike can be split; the base
        refuses.
        """
        raise SimulationError(
            f"runtime {type(self).__name__} cannot be split into members"
        )

    def _refuse_member_advance(self) -> SimulationError:
        return SimulationError(
            f"population {self.name!r} is stepped as part of block "
            f"{self.block.name!r}; advance the block"
        )

    @abc.abstractmethod
    def state(self) -> State:
        """A float-valued live view of the state (for recording)."""

    def evaluations_per_step(self) -> float:
        """Solver evaluations charged per step (cost-model input)."""
        return 1.0

    # -- telemetry seam ----------------------------------------------------

    def publish_metrics(self, metrics) -> None:
        """Publish this runtime's lifetime counters into a registry.

        Called at collect time (run end), never on the hot path.
        Lifetime tallies use ``Counter.set_total`` so repeated runs of
        one simulator stay monotone. Subclasses extend with their own
        counters and call ``super().publish_metrics(metrics)``.
        """
        metrics.gauge(
            "runtime_neurons",
            "Neurons owned by each population runtime.",
            {"population": self.name},
        ).set(self.n)

    def publish_block_metrics(self, metrics) -> None:
        """Publish what is counted per stepped block rather than per
        population. :meth:`publish_metrics` includes it for a runtime
        that is stepped itself; the backend calls it on a fused block,
        whose members publish everything else under their own names.
        """

    # -- reliability seam --------------------------------------------------

    def health(
        self, limit: Optional[float] = DIVERGENCE_LIMIT
    ) -> Optional[Tuple[str, np.ndarray]]:
        """Cheap numeric screen of the live state.

        Returns ``None`` while every state variable is finite (and
        within ``±limit`` when a limit is given); otherwise the name of
        the first bad variable and the indices of the offending
        neurons. Fixed-point runtimes are bounded by construction, so
        this default only ever trips on the float paths.
        """
        for variable, values in self.state().items():
            bad = ~np.isfinite(values)
            if limit is not None:
                bad |= np.abs(values) > limit
            if bad.any():
                return variable, np.nonzero(bad)[0]
        return None

    def snapshot(self) -> Dict[str, object]:
        """Everything needed to rebuild this runtime's state bit for bit.

        Subclasses override both halves; the base refuses so a backend
        with a non-checkpointable runtime fails loudly at capture time
        rather than resuming wrong.
        """
        raise CheckpointError(
            f"runtime {type(self).__name__} does not support checkpointing"
        )

    def restore(self, payload: Dict[str, object]) -> None:
        """Overwrite this runtime's state from a :meth:`snapshot`."""
        raise CheckpointError(
            f"runtime {type(self).__name__} does not support checkpointing"
        )

    def _check_restore_sizes(self, state: Dict[str, np.ndarray]) -> None:
        for name, values in state.items():
            if np.asarray(values).shape != (self.n,):
                raise CheckpointError(
                    f"checkpointed variable {name!r} of {self.name!r} has "
                    f"shape {np.asarray(values).shape}, expected ({self.n},)"
                )


class CompiledRuntime(PopulationRuntime):
    """Executes a precompiled :class:`StepPlan` over SoA state.

    State lives in flat float64 blocks — ``v`` as ``(n,)``, the
    per-synapse-type conductances as one contiguous ``(types, n)``
    block — so the per-type Python loop of the dict-state path becomes
    a single broadcast numpy operation, and every scratch array is
    allocated once and reused. The plan is compiled on construction
    when ``dt`` is known, else lazily on the first ``advance`` (and
    recompiled if the caller ever changes ``dt``).
    """

    def __init__(
        self,
        name: str,
        n: int,
        model: FeatureModel,
        dt: Optional[float] = None,
    ) -> None:
        super().__init__(name, n)
        if not supports_step_plan(model):
            raise SimulationError(
                f"model {model.name!r} cannot be compiled to a step plan"
            )
        self.model = model
        self._advances = 0
        self._plan: Optional[StepPlan] = None
        self._kernel: Optional[Callable[[np.ndarray], np.ndarray]] = None

        p = model.parameters
        f = model.features
        n_types = p.n_synapse_types
        self._n_types = n_types
        # -- structure-of-arrays state ----------------------------------
        self.v = np.full(n, p.v_rest, dtype=np.float64)
        self.g = (
            np.zeros((n_types, n), dtype=np.float64)
            if f.uses_conductance
            else None
        )
        self.y = (
            np.zeros((n_types, n), dtype=np.float64)
            if Feature.COBA in f
            else None
        )
        self.w = (
            np.zeros(n, dtype=np.float64) if f.has_adaptation_state else None
        )
        self.r = np.zeros(n, dtype=np.float64) if Feature.RR in f else None
        self.cnt = np.zeros(n, dtype=np.float64) if Feature.AR in f else None
        self._views = self._named_views()
        if dt is not None:
            self._bind(dt)

    def _named_views(self) -> State:
        """Live float views of the SoA blocks under the canonical
        dict-state names."""
        views: State = {"v": self.v}
        if self.g is not None:
            for i in range(self._n_types):
                views[f"g{i}"] = self.g[i]
        if self.y is not None:
            for i in range(self._n_types):
                views[f"y{i}"] = self.y[i]
        if self.w is not None:
            views["w"] = self.w
        if self.r is not None:
            views["r"] = self.r
        if self.cnt is not None:
            views["cnt"] = self.cnt
        return views

    # -- plan compilation ------------------------------------------------

    def _stepped(self) -> "CompiledRuntime":
        """The runtime whose ``advance`` moves this one's state."""
        return self if self.block is None else self.block

    @property
    def plan(self) -> Optional[StepPlan]:
        """The currently bound step plan (None before first advance)."""
        return self._stepped()._plan

    @property
    def advances(self) -> int:
        """Steps executed so far (a member's are its block's)."""
        return self._stepped()._advances

    @advances.setter
    def advances(self, value: int) -> None:
        self._stepped()._advances = value

    def split(
        self, members: Sequence[Tuple[str, int, int]]
    ) -> List["CompiledRuntime"]:
        views = []
        for name, lo, hi in members:
            view = copy.copy(self)
            view.name, view.n, view.block = name, hi - lo, self
            for attribute in ("v", "g", "y", "w", "r", "cnt"):
                values = getattr(self, attribute)
                if values is not None:
                    setattr(view, attribute, values[..., lo:hi])
            view._views = view._named_views()
            views.append(view)
        return views

    def _bind(self, dt: float) -> None:
        self._plan = compile_step_plan(self.model, dt)
        self._kernel = self._build_kernel(self._plan)

    def _build_kernel(self, plan: StepPlan) -> Callable[[np.ndarray], np.ndarray]:
        """Close the plan's constants and this runtime's arrays over a
        flat update function; all feature dispatch happens here, once.
        """
        n = self.n
        n_types = self._n_types
        v, g, y, w, r, cnt = self.v, self.g, self.y, self.w, self.r, self.cnt

        # Preallocated scratch, reused every step.
        gated = np.empty((n_types, n)) if plan.use_ar else None
        ar_gate = np.empty(n, dtype=bool) if plan.use_ar else None
        ts = np.empty((n_types, n)) if (plan.kernel == "COBA" or plan.use_rev) else None
        syn = np.empty(n)
        tmp = np.empty(n)
        tmp2 = np.empty(n) if plan.use_qdi else None
        v_new = np.empty(n)
        fired = np.empty(n, dtype=bool)

        kernel_kind = plan.kernel
        adaptation = plan.adaptation
        use_ar, use_rev = plan.use_ar, plan.use_rev
        use_lid, use_qdi, use_exi = plan.use_lid, plan.use_qdi, plan.use_exi
        one_minus_eps_g, e_eps_g, v_g = plan.one_minus_eps_g, plan.e_eps_g, plan.v_g
        eps_m, v_rest, theta = plan.eps_m, plan.v_rest, plan.theta
        v_c, delta_t, leak_max = plan.v_c, plan.delta_t, plan.leak_max
        threshold, reset_voltage = plan.threshold, plan.reset_voltage
        one_minus_eps_w, one_minus_eps_r = plan.one_minus_eps_w, plan.one_minus_eps_r
        sbt_gain, v_w_target = plan.sbt_gain, plan.v_w
        v_rr, v_ar, b, q_r = plan.v_rr, plan.v_ar, plan.b, plan.q_r
        cnt_reload = plan.cnt_reload

        def kernel(inputs: np.ndarray) -> np.ndarray:
            # In-place augmented assignments below would otherwise make
            # these closure names local (and unbound) inside the kernel.
            nonlocal g, y, w, r, syn, tmp, ts, v_new
            # 1. absolute refractory gates the inputs of silenced neurons
            if use_ar:
                np.less_equal(cnt, 0.0, out=ar_gate)
                np.multiply(inputs, ar_gate, out=gated)
                x = gated
            else:
                x = inputs

            # 2-3. synaptic kernels and reversal scaling (old v)
            if kernel_kind == "COBA":
                y *= one_minus_eps_g
                y += x
                g *= one_minus_eps_g
                np.multiply(y, e_eps_g, out=ts)
                g += ts
                contribution = g
            elif kernel_kind == "COBE":
                g *= one_minus_eps_g
                g += x
                contribution = g
            else:  # CUB: instantaneous, no stored conductance
                contribution = x
            if use_rev:
                np.subtract(v_g, v, out=ts)
                ts *= contribution
                np.sum(ts, axis=0, out=syn)
            else:
                np.sum(contribution, axis=0, out=syn)

            # 4-5. membrane update
            if use_lid:
                np.subtract(v, v_rest, out=tmp)
                np.maximum(tmp, 0.0, out=tmp)
                np.minimum(tmp, leak_max, out=tmp)
                np.add(v, syn, out=v_new)
                v_new -= tmp
            else:
                np.subtract(v_rest, v, out=tmp)
                syn += tmp  # syn now holds the drive
                if use_qdi:
                    np.subtract(v_c, v, out=tmp2)
                    tmp *= tmp2
                    syn += tmp
                elif use_exi:
                    np.subtract(v, theta, out=tmp)
                    tmp /= delta_t
                    np.exp(tmp, out=tmp)
                    tmp *= delta_t
                    syn += tmp
                syn *= eps_m
                np.add(v, syn, out=v_new)

            # 6. spike-triggered current / relative refractory (old v)
            if adaptation == "RR":
                w *= one_minus_eps_w
                r *= one_minus_eps_r
                np.subtract(v_rr, v, out=tmp)
                tmp *= r
                v_new += tmp
                np.subtract(v_ar, v, out=tmp)
                tmp *= w
                v_new += tmp
            elif adaptation == "SBT":
                w *= one_minus_eps_w
                np.subtract(v, v_w_target, out=tmp)
                tmp *= sbt_gain
                w += tmp
                v_new += w
            elif adaptation == "ADT":
                w *= one_minus_eps_w
                v_new += w

            # 7. fire & reset
            np.greater(v_new, threshold, out=fired)
            v_new[fired] = reset_voltage
            if adaptation == "RR":
                w[fired] += b
                r[fired] += q_r
            elif adaptation is not None:
                w[fired] -= b
            if use_ar:
                np.subtract(cnt, 1.0, out=cnt)
                np.maximum(cnt, 0.0, out=cnt)
                cnt[fired] = cnt_reload
            v[:] = v_new
            return fired

        return kernel

    # -- PopulationRuntime interface --------------------------------------

    def advance(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        if self.block is not None:
            raise self._refuse_member_advance()
        if self._plan is None or dt != self._plan.dt:
            self._bind(dt)
        if inputs.shape != (self._n_types, self.n):
            raise SimulationError(
                f"expected inputs of shape {(self._n_types, self.n)}, "
                f"got {inputs.shape}"
            )
        self._advances += 1
        return self._kernel(inputs)

    def publish_metrics(self, metrics) -> None:
        super().publish_metrics(metrics)
        metrics.counter(
            "runtime_advances_total",
            "Population steps executed by each runtime.",
            {"population": self.name, "runtime": "compiled"},
        ).set_total(self.advances)

    def state(self) -> State:
        return self._views

    def load_state(self, state: State) -> None:
        """Overwrite the SoA blocks from a dict-state snapshot."""
        for name, values in state.items():
            self._views[name][:] = values

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "compiled",
            "state": {name: view.copy() for name, view in self._views.items()},
            "advances": self.advances,
        }

    def restore(self, payload: Dict[str, object]) -> None:
        state = payload["state"]
        if set(state) != set(self._views):
            raise CheckpointError(
                f"checkpoint variables {sorted(state)} do not match "
                f"{self.name!r}'s state {sorted(self._views)}"
            )
        self._check_restore_sizes(state)
        self.load_state(state)
        self.advances = int(payload["advances"])


class SolverRuntime(PopulationRuntime):
    """A software solver advancing one population's named state.

    Built plainly, the state is the model's dict of arrays and every
    step is ``solver.advance(model, state, ...)`` — forward Euler
    calling ``model.step``, or RKF45's smooth/jump split evaluating
    ``model.derivatives`` on dict snapshots. Any model runs here
    (Hodgkin-Huxley, native Izhikevich), and for feature models this is
    the oracle: ``ReferenceBackend(use_engine=False)`` selects it.

    :meth:`lowered` builds the same runtime on a compiled
    :class:`~repro.engine.plan.FlowPlan` instead: the integrated
    variables become rows of the RKF45 stepper's own ``(n_vars, n)``
    block and the jump / derivative / fire-reset kernels run in place
    over preallocated scratch. Spikes, state bytes, evaluation counts
    and checkpoints are bit-identical between the two.
    """

    def __init__(self, name: str, n: int, model: NeuronModel, solver: Solver):
        super().__init__(name, n)
        self.model = model
        self.solver = solver
        self._state = model.initial_state(n)
        #: The compiled flow plan (None on the dict-state path).
        self.flow_plan: Optional[FlowPlan] = None
        self._flow_step: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    @classmethod
    def lowered(
        cls, name: str, n: int, model: FeatureModel, solver: RKF45Solver
    ) -> "SolverRuntime":
        """A runtime whose RKF45 steps execute ``model``'s flow plan."""
        if not isinstance(solver, RKF45Solver):
            raise SimulationError(
                f"a flow plan needs the RKF45 solver, got {solver.name!r}"
            )
        runtime = cls(name, n, model, solver)
        runtime._lower(compile_flow_plan(model))
        return runtime

    def _lower(self, plan: FlowPlan) -> None:
        """Re-seat the state onto a stepper block and close the plan's
        constants over in-place kernels; all feature dispatch happens
        here, once. Each kernel mirrors its ``FeatureModel`` method
        operation for operation (that is the bit-identity contract),
        with two exact rewrites: ``-x / tau`` is computed as
        ``x / -tau`` (IEEE division is sign-symmetric) and ``0 + x`` as
        ``x + 0``. Every ufunc call is same-shape or array-with-scalar:
        a broadcast or mixed-dtype call would make numpy allocate
        iterator buffers on every evaluation.
        """
        n = self.n
        n_types = plan.n_synapse_types
        types = range(n_types)
        solver = self.solver
        stepper = RKF45Stepper((len(plan.flow_names), n), plan.flow_names)
        block = stepper.y
        rows = iter(block)
        state: State = {
            name: np.zeros(n) if name == "cnt" else next(rows)
            for name in plan.state_names
        }
        for name, values in self._state.items():
            state[name][:] = values
        self._state = state
        self.flow_plan = plan

        # Row layout of the block (FeatureSet.state_variables order):
        # v, then g per type, then (COBA) y per type, then w, then r.
        kernel_kind, adaptation = plan.kernel, plan.adaptation
        conductance = kernel_kind != "CUB"
        g_row = 1
        y_row = 1 + n_types
        w_row = plan.flow_names.index("w") if adaptation else None
        r_row = plan.flow_names.index("r") if adaptation == "RR" else None
        v = block[0]
        g = block[g_row:g_row + n_types] if conductance else None
        ys = block[y_row:y_row + n_types] if kernel_kind == "COBA" else None
        w = block[w_row] if w_row is not None else None
        r = block[r_row] if r_row is not None else None
        cnt = state.get("cnt")

        # Preallocated scratch, reused by every evaluation.
        use_ar = plan.use_ar
        refractory = np.empty(n, dtype=bool) if use_ar else None
        gate = np.empty(n) if use_ar else None
        gated = np.empty((n_types, n)) if use_ar else None
        tmp = np.empty(n)
        tmp2 = np.empty(n) if plan.use_qdi else None
        fired = np.empty(n, dtype=bool)

        use_rev, use_qdi, use_exi = plan.use_rev, plan.use_qdi, plan.use_exi
        tau, v_rest, theta, v_c = plan.tau, plan.v_rest, plan.theta, plan.v_c
        delta_t, exi_cap = plan.delta_t, plan.exi_cap
        threshold, reset_voltage = plan.threshold, plan.reset_voltage
        tau_w, tau_r, a, v_w = plan.tau_w, plan.tau_r, plan.a, plan.v_w
        v_rr, v_ar, b, q_r = plan.v_rr, plan.v_ar, plan.b, plan.q_r
        tau_g, v_g = plan.tau_g, plan.v_g
        refractory_steps = self.model.parameters.refractory_steps

        def jump(inputs: np.ndarray) -> None:
            """``FeatureModel.apply_input_jumps``."""
            nonlocal g, ys, v
            if use_ar:
                np.less_equal(cnt, 0.0, out=refractory)
                np.copyto(gate, refractory)  # 1.0 where input is let in
                for i in types:
                    np.multiply(inputs[i], gate, out=gated[i])
                inputs = gated
            if kernel_kind == "COBA":
                ys += inputs
            elif kernel_kind == "COBE":
                g += inputs
            else:
                for i in types:
                    v += inputs[i]

        def flow(_t: float, y: np.ndarray, out: np.ndarray) -> None:
            """``FeatureModel.derivatives``: ``y`` -> ``out``, both
            ``(n_vars, n)`` blocks of the stepper (never the same)."""
            nonlocal tmp
            yv = y[0]
            drive = out[0]  # accumulates syn, then the drive, then dv/dt
            for i in types if conductance else ():
                yg = y[g_row + i]
                if kernel_kind == "COBA":
                    yy = y[y_row + i]
                    np.divide(yy, -tau_g[i], out=out[y_row + i])
                    out_g = out[g_row + i]
                    np.multiply(yy, math.e, out=out_g)
                    out_g -= yg
                    out_g /= tau_g[i]
                else:
                    np.divide(yg, -tau_g[i], out=out[g_row + i])
                if use_rev:
                    np.subtract(v_g[i], yv, out=tmp)
                    tmp *= yg
                    contribution = tmp
                else:
                    contribution = yg
                # syn accumulates from zero, one synapse type at a time
                if i == 0:
                    np.add(contribution, 0.0, out=drive)
                else:
                    drive += contribution
            np.subtract(v_rest, yv, out=tmp)
            if conductance:
                drive += tmp
            else:  # CUB: inputs are jumps on v, syn is identically zero
                np.add(tmp, 0.0, out=drive)
            if use_qdi:
                np.subtract(v_c, yv, out=tmp2)
                tmp *= tmp2
                drive += tmp
            if use_exi:
                np.subtract(yv, theta, out=tmp)
                tmp /= delta_t
                np.minimum(tmp, exi_cap, out=tmp)
                np.exp(tmp, out=tmp)
                tmp *= delta_t
                drive += tmp
            if adaptation == "RR":
                yw, yr = y[w_row], y[r_row]
                np.subtract(v_rr, yv, out=tmp)
                tmp *= yr
                drive += tmp
                np.subtract(v_ar, yv, out=tmp)
                tmp *= yw
                drive += tmp
                np.divide(yw, -tau_w, out=out[w_row])
                np.divide(yr, -tau_r, out=out[r_row])
            elif adaptation == "SBT":
                yw = y[w_row]
                drive += yw
                out_w = out[w_row]
                np.subtract(yv, v_w, out=out_w)
                out_w *= a
                out_w -= yw
                out_w /= tau_w
            elif adaptation == "ADT":
                yw = y[w_row]
                drive += yw
                np.divide(yw, -tau_w, out=out[w_row])
            drive /= tau

        def fire(dt: float) -> np.ndarray:
            """``FeatureModel.fire_and_reset``."""
            np.greater(v, threshold, out=fired)
            v[fired] = reset_voltage
            if adaptation == "RR":
                w[fired] += b
                r[fired] += q_r
            elif adaptation is not None:
                w[fired] -= b
            if use_ar:
                np.subtract(cnt, 1.0, out=cnt)
                np.maximum(cnt, 0.0, out=cnt)
                cnt[fired] = float(refractory_steps(dt))
            return fired

        def step(inputs: np.ndarray, dt: float) -> np.ndarray:
            if inputs.shape != (n_types, n):
                raise SimulationError(
                    f"expected inputs of shape {(n_types, n)}, "
                    f"got {inputs.shape}"
                )
            jump(inputs)
            solver.integrate(stepper, flow, dt)
            return fire(dt)

        self._flow_step = step

    def advance(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        try:
            if self._flow_step is not None:
                return self._flow_step(inputs, dt)
            return self.solver.advance(self.model, self._state, inputs, dt)
        except NumericsError as error:
            if error.population:
                raise
            step = self.solver.advances
            raise NumericsError(
                f"population {self.name!r}, step {step}: {error}",
                population=self.name,
                step=step,
                variable=error.variable,
                indices=error.indices,
            ) from error

    def state(self) -> State:
        return self._state

    def evaluations_per_step(self) -> float:
        return self.solver.evaluations_per_step()

    def publish_metrics(self, metrics) -> None:
        super().publish_metrics(metrics)
        labels = {"population": self.name, "runtime": "solver"}
        metrics.counter(
            "runtime_advances_total",
            "Population steps executed by each runtime.",
            labels,
        ).set_total(self.solver.advances)
        metrics.counter(
            "runtime_solver_evaluations_total",
            "Derivative/step evaluations performed by the solver.",
            labels,
        ).set_total(self.solver.evaluations)

    def load_state(self, state: State) -> None:
        """Overwrite the dict state in place (keeps recorder views live)."""
        for name, values in state.items():
            self._state[name][:] = values

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "solver",
            "state": {name: values.copy() for name, values in self._state.items()},
            "evaluations": self.solver.evaluations,
            "advances": self.solver.advances,
        }

    def restore(self, payload: Dict[str, object]) -> None:
        state = payload["state"]
        if set(state) != set(self._state):
            raise CheckpointError(
                f"checkpoint variables {sorted(state)} do not match "
                f"{self.name!r}'s state {sorted(self._state)}"
            )
        self._check_restore_sizes(state)
        self.load_state(state)
        self.solver.evaluations = int(payload["evaluations"])
        self.solver.advances = int(payload["advances"])
