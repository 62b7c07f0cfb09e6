"""PopulationRuntime: the one execution seam every backend runs through.

A :class:`PopulationRuntime` owns one population's state and advances
it one step per call. The simulator's neuron-computation phase only
ever talks to this interface, so the reference float path, the
fixed-point hardware models, and any future executor plug in behind the
same contract. There are three runtimes, one role each:

* :class:`CompiledRuntime` — a feature model lowered, once per ``dt``,
  into in-place kernels over one preallocated float64 state block, under
  either solver: Euler's discrete step (bit-identical to
  ``FeatureModel.step``) or RKF45's input jumps and continuous flow on
  the stepper's own block (bit-identical to ``apply_input_jumps`` /
  ``derivatives``). This is the compile-once/step-many discipline of
  GeNN-style simulators.
* :class:`SolverRuntime` — the dict-state oracle: named state advanced
  by ``model.step`` under Euler, or under RKF45 by the stepper
  evaluating ``model.derivatives`` on dict snapshots. Models the
  lowering cannot express (Hodgkin-Huxley, native Izhikevich) run here,
  and so does every population under
  ``ReferenceBackend(use_engine=False)``.
* ``HardwareRuntime`` (in :mod:`repro.hardware.backend`) — quantises
  inputs and steps a Flexon / folded-Flexon array model.

Registering a new backend therefore means implementing one
``build_runtime(population)`` hook; see DESIGN.md's "Engine layer".

The lowering reads the model's ``ModelParameters``, their
``derived(dt)`` constants and its ``FeatureSet`` (``accumulation_kernel``,
``w_owner``, ``threshold``) directly.
"""

from __future__ import annotations

import abc
import copy
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    CheckpointError, ConfigurationError, NumericsError, SimulationError,
)
from repro.features import Feature
from repro.models.base import NeuronModel, State
from repro.models.feature_model import FeatureModel
from repro.solvers import canonical_solver_name
from repro.solvers.rkf45 import RKF45Stepper

#: Absolute state value beyond which a float runtime is considered
#: divergent. The shift-and-scale normalisation keeps healthy membrane
#: potentials within a few units of [0, 1] and conductances far below
#: this, so the bound trips only on genuine blow-ups, never on
#: legitimate dynamics.
DIVERGENCE_LIMIT = 1e6

#: The largest argument float64 ``exp`` takes without overflowing.
EXP_LIMIT = math.log(np.finfo(np.float64).max)


#: The model methods each solver's lowering stands in for.
_LOWERED_METHODS = {
    "Euler": ("step", "fire_and_reset"),
    "RKF45": ("apply_input_jumps", "derivatives", "fire_and_reset"),
}


def supports_lowering(model: NeuronModel, solver: str) -> bool:
    """Whether ``model``'s semantics under ``solver`` (``"Euler"`` or
    ``"RKF45"``) are exactly the feature lowering.

    Only a :class:`FeatureModel` with the stock zero-initialised state
    and the canonical methods the solver calls lowers: ``step`` and the
    ``fire_and_reset`` it ends with under Euler; ``apply_input_jumps``,
    ``derivatives`` and ``fire_and_reset`` under RKF45, which also needs
    a continuous form to integrate (LID has none). A subclass that overrides one has
    private semantics the kernels would silently diverge from, so it
    stays on :class:`SolverRuntime`.
    """
    return (
        isinstance(model, FeatureModel)
        and type(model).initial_state is NeuronModel.initial_state
        and all(
            getattr(type(model), method) is getattr(FeatureModel, method)
            for method in _LOWERED_METHODS[solver]
        )
        and not (solver == "RKF45" and Feature.LID in model.features)
    )


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

    def health(self) -> Optional[Tuple[str, np.ndarray]]:
        """Cheap numeric screen of the live state.

        Returns ``None`` while every state variable is finite and within
        ``±DIVERGENCE_LIMIT``; otherwise the name of the first bad
        variable and the indices of the offending neurons. Fixed-point
        runtimes are bounded by construction, so this default only ever
        trips on the float paths.
        """
        for variable, values in self.state().items():
            bad = ~np.isfinite(values) | (np.abs(values) > DIVERGENCE_LIMIT)
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


def _refuse_exi_overflow(name: str, model: NeuronModel) -> None:
    """Refuse an EXI model whose exponent ceiling ``exi_cap`` is past
    float64's ``exp``: its spike times would follow where the
    exponential overflows, not the model."""
    if Feature.EXI not in getattr(model, "features", ()):
        return
    p = model.parameters
    if p.exi_cap <= EXP_LIMIT:
        return
    # exi_cap = (v_theta - theta) / delta_t + 2; round up to 3 digits.
    smallest = (p.v_theta - p.theta) / (EXP_LIMIT - 2.0)
    unit = 10.0 ** (math.floor(math.log10(smallest)) - 2)
    smallest = math.ceil(smallest / unit) * unit
    raise ConfigurationError(
        f"population {name!r}: model {model.name!r} with delta_t = "
        f"{p.delta_t:g} takes exp of up to {p.exi_cap:g}, past float64's "
        f"{EXP_LIMIT:.2f}; use delta_t >= {smallest:.3g}"
    )


class _SoftwareRuntime(PopulationRuntime):
    """A float64 population advanced under a software solver: the named
    state, the solver's counters, the checkpoint payload and the
    ``NumericsError`` wrapping both software runtimes share.

    ``solver`` is the solver's name; ``evaluations`` (what the cost
    models charge neuron computation by) and ``advances`` count its
    work. A fused block's kernel charges each member view its own.

    ``kind`` names the snapshot payload and is the ``runtime`` label of
    the metrics: ``"solver"`` carries evaluation and advance counts,
    ``"compiled"`` (the Euler lowering, one evaluation per advance)
    only the advance count.
    """

    kind = "solver"

    def __init__(self, name: str, n: int, model: NeuronModel, solver: str):
        super().__init__(name, n)
        _refuse_exi_overflow(name, model)
        self.model = model
        self.solver = canonical_solver_name(solver)
        self.evaluations = 0
        self.advances = 0
        self._state: State = {}
        #: A fused block's member views by name (see :meth:`advance`).
        self._views: Dict[str, "_SoftwareRuntime"] = {}

    @abc.abstractmethod
    def _step(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        """One step of :meth:`advance`, unwrapped."""

    def advance(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        try:
            return self._step(inputs, dt)
        except NumericsError as error:
            if error.step >= 0:
                raise
            # A fused block's stepper names the member whose columns failed.
            runtime = self._views.get(error.population, self)
            step = runtime.advances
            raise NumericsError(
                f"population {runtime.name!r}, step {step}: {error}",
                population=runtime.name,
                step=step,
                variable=error.variable,
                indices=error.indices,
            ) from error

    def state(self) -> State:
        return self._state

    def evaluations_per_step(self) -> float:
        if self.advances == 0:  # one step's minimum
            return 6.0 if self.solver == "RKF45" else 1.0
        return self.evaluations / self.advances

    def publish_metrics(self, metrics) -> None:
        super().publish_metrics(metrics)
        labels = {"population": self.name, "runtime": self.kind}
        metrics.counter(
            "runtime_advances_total",
            "Population steps executed by each runtime.",
            labels,
        ).set_total(self.advances)
        if self.kind == "solver":
            metrics.counter(
                "runtime_solver_evaluations_total",
                "Derivative/step evaluations performed by the solver.",
                labels,
            ).set_total(self.evaluations)

    def load_state(self, state: State) -> None:
        """Overwrite the state in place (keeps recorder views live)."""
        for name, values in state.items():
            self._state[name][:] = values

    def snapshot(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "state": {name: values.copy() for name, values in self._state.items()},
        }
        if self.kind == "solver":
            payload["evaluations"] = self.evaluations
        payload["advances"] = self.advances
        return payload

    def restore(self, payload: Dict[str, object]) -> None:
        state = payload["state"]
        if set(state) != set(self._state):
            raise CheckpointError(
                f"checkpoint variables {sorted(state)} do not match "
                f"{self.name!r}'s state {sorted(self._state)}"
            )
        self._check_restore_sizes(state)
        self.load_state(state)
        self.advances = int(payload["advances"])
        # A compiled payload leaves out what Euler's one evaluation per
        # advance implies.
        self.evaluations = int(payload.get("evaluations", self.advances))


class CompiledRuntime(_SoftwareRuntime):
    """A feature model lowered, once per ``dt``, into in-place kernels
    over one float64 state block.

    The block is ``(n_flow, n)``: a row per variable of
    ``FeatureSet.state_variables`` (``v``, ``g`` per synapse type,
    COBA's ``y`` per type, ``w``, ``r``) but ``cnt``, the AR counter,
    which never flows (it enters no RKF45 stage or error norm) and is a
    row of its own. Under RKF45 the block is the stepper's ``y``,
    integrated in place, and every member of a fused block (see
    :meth:`split`) is its own step-size-controlled range of columns;
    under Euler it is a plain array. Only the
    kernel between the AR input gate and fire/reset differs: Euler's
    mirrors ``FeatureModel.step``, RKF45's ``apply_input_jumps`` then
    ``derivatives`` (DESIGN.md §3b, "Adaptive lowering"). No ufunc call
    mixes dtypes or broadcasts one operand against a full block (numpy
    allocates iterator buffers for those on every call), and every
    scratch array is allocated when the kernels are built: on the first
    ``advance`` and whenever ``dt`` changes.

    The RKF45 lowering snapshots the dict-state oracle's payload, so a
    checkpoint restores into either runtime.
    """

    def __init__(self, name: str, n: int, model: FeatureModel, solver: str):
        super().__init__(name, n, model, solver)
        if not supports_lowering(model, self.solver):
            raise SimulationError(
                f"model {model.name!r} cannot be lowered under {self.solver}"
            )
        self._n_types = model.parameters.n_synapse_types
        names = model.state_variable_names()
        flows = tuple(name for name in names if name != "cnt")
        self._stepper: Optional[RKF45Stepper] = None
        if self.solver == "RKF45":
            self._stepper = RKF45Stepper((len(flows), n), flows)
            self._block = self._stepper.y
        else:
            self.kind = "compiled"
            self._block = np.zeros((len(flows), n))
        self._cnt = np.zeros(n) if "cnt" in names else None
        #: The block's members: this runtime's columns, or its views'.
        self._members: Tuple[Tuple[str, int, int], ...] = ((name, 0, n),)
        self._bind_views()
        self.load_state(model.initial_state(n))
        #: The ``dt`` the kernels were built for (None before the first step).
        self._dt: Optional[float] = None
        self._kernel: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def _bind_views(self) -> None:
        """Name the block's rows (and ``cnt``) in state-variable order."""
        rows = iter(self._block)
        self._state = {
            name: self._cnt if name == "cnt" else next(rows)
            for name in self.model.state_variable_names()
        }

    def split(
        self, members: Sequence[Tuple[str, int, int]]
    ) -> List["CompiledRuntime"]:
        """Member views over column ranges of the block. The block's
        kernel charges each view its own counters: one evaluation per
        advance under Euler; under RKF45 the evaluations the stepper
        spent on the view's columns, accepting or rejecting each
        member's substeps on its own. ``evaluations``, ``advances`` and
        a ``NumericsError`` therefore stay per population."""
        views = []
        for name, lo, hi in members:
            view = copy.copy(self)
            view.name, view.n, view.block = name, hi - lo, self
            view._block = self._block[:, lo:hi]
            if self._cnt is not None:
                view._cnt = self._cnt[lo:hi]
            view._bind_views()
            views.append(view)
        self._members = tuple(members)
        self._views = {view.name: view for view in views}
        return views

    def _step(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        if self.block is not None:
            raise self._refuse_member_advance()
        if inputs.shape != (self._n_types, self.n):
            raise SimulationError(
                f"expected inputs of shape {(self._n_types, self.n)}, "
                f"got {inputs.shape}"
            )
        if dt != self._dt:
            self._kernel, self._dt = self._build(dt), dt
        return self._kernel(inputs)

    # -- lowering -----------------------------------------------------------

    def _build(self, dt: float) -> Callable[[np.ndarray], np.ndarray]:
        """Close the model's constants at ``dt`` and this runtime's rows
        over one step function; all feature dispatch happens here, once.
        """
        p, f = self.model.parameters, self.model.features
        n, n_types = self.n, p.n_synapse_types
        owner = f.w_owner
        state, cnt = self._state, self._cnt
        v, w, r = state["v"], state.get("w"), state.get("r")
        if self._stepper is None:
            integrate = self._euler_kernel(dt)
        else:
            integrate = self._rkf45_kernel(dt)

        # Preallocated scratch, reused every step.
        admitted = np.empty(n, dtype=bool) if cnt is not None else None
        gate = np.empty(n) if cnt is not None else None
        gated = np.empty((n_types, n)) if cnt is not None else None
        fired = np.empty(n, dtype=bool)
        threshold, reset_voltage = f.threshold(p), p.reset_voltage
        b, q_r = p.b, p.q_r
        cnt_reload = float(p.refractory_steps(dt))

        def step(inputs: np.ndarray) -> np.ndarray:
            # 1. absolute refractory gates the inputs of silenced neurons
            if cnt is not None:
                np.less_equal(cnt, 0.0, out=admitted)
                np.copyto(gate, admitted)  # 1.0 where input is let in
                for i in range(n_types):
                    np.multiply(inputs[i], gate, out=gated[i])
                inputs = gated
            integrate(inputs)
            # 7. fire & reset
            np.greater(v, threshold, out=fired)
            v[fired] = reset_voltage
            if owner is Feature.RR:
                w[fired] += b
                r[fired] += q_r
            elif owner is not None:
                w[fired] -= b
            if cnt is not None:
                np.subtract(cnt, 1.0, out=cnt)
                np.maximum(cnt, 0.0, out=cnt)
                cnt[fired] = cnt_reload
            return fired

        return step

    def _euler_kernel(self, dt: float) -> Callable[[np.ndarray], None]:
        """``FeatureModel.step`` up to fire/reset, on the block."""
        p, f = self.model.parameters, self.model.features
        d = p.derived(dt)
        n, n_types = self.n, p.n_synapse_types
        block, state = self._block, self._state
        charged = tuple(self._views.values()) or (self,)  # views, in order
        v, w, r = state["v"], state.get("w"), state.get("r")
        g = block[1:1 + n_types]
        y = block[1 + n_types:1 + 2 * n_types]
        kernel_kind, owner = f.accumulation_kernel, f.w_owner
        use_rev = Feature.REV in f
        use_lid, use_qdi, use_exi = Feature.LID in f, Feature.QDI in f, Feature.EXI in f

        ts = np.empty((n_types, n)) if (kernel_kind is Feature.COBA or use_rev) else None
        syn = np.empty(n)
        tmp = np.empty(n)
        tmp2 = np.empty(n) if use_qdi else None
        v_new = np.empty(n)

        one_minus_eps_g, e_eps_g, v_g = (
            np.array(values[:n_types], dtype=np.float64).reshape(n_types, 1)
            for values in (d.one_minus_eps_g, d.e_eps_g, p.v_g)
        )
        # The decay and gain columns multiply whole (types, n) blocks: as
        # full blocks they broadcast nothing (see the class docstring).
        # (v_g - v) broadcasts both operands and needs no buffer.
        one_minus_eps_g = one_minus_eps_g.repeat(n, axis=1)
        e_eps_g = e_eps_g.repeat(n, axis=1)
        eps_m, v_rest, theta = d.eps_m, p.v_rest, p.theta
        v_c, delta_t, leak_max = p.v_c, p.delta_t, d.leak_max
        one_minus_eps_w, one_minus_eps_r = d.one_minus_eps_w, d.one_minus_eps_r
        sbt_gain, v_w_target = d.sbt_gain, p.v_w
        v_rr, v_ar = p.v_rr, p.v_ar

        def kernel(x: np.ndarray) -> None:
            # In-place augmented assignments below would otherwise make
            # these closure names local (and unbound) inside the kernel.
            nonlocal g, y, w, r, syn, tmp, ts, v_new
            for runtime in charged:
                runtime.evaluations += 1
                runtime.advances += 1
            # 2-3. synaptic kernels and reversal scaling (old v)
            if kernel_kind is Feature.COBA:
                y *= one_minus_eps_g
                y += x
                g *= one_minus_eps_g
                np.multiply(y, e_eps_g, out=ts)
                g += ts
                contribution = g
            elif kernel_kind is Feature.COBE:
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
            if owner is Feature.RR:
                w *= one_minus_eps_w
                r *= one_minus_eps_r
                np.subtract(v_rr, v, out=tmp)
                tmp *= r
                v_new += tmp
                np.subtract(v_ar, v, out=tmp)
                tmp *= w
                v_new += tmp
            elif owner is Feature.SBT:
                w *= one_minus_eps_w
                np.subtract(v, v_w_target, out=tmp)
                tmp *= sbt_gain
                w += tmp
                v_new += w
            elif owner is Feature.ADT:
                w *= one_minus_eps_w
                v_new += w
            np.copyto(v, v_new)

        return kernel

    def _rkf45_kernel(self, dt: float) -> Callable[[np.ndarray], None]:
        """``FeatureModel.apply_input_jumps``, then ``derivatives``
        integrated over ``dt`` on the stepper's block. Each mirrors its
        method operation for operation, with two exact rewrites:
        ``-x / tau`` is computed as ``x / -tau`` (IEEE division is
        sign-symmetric) and ``0 + x`` as ``x + 0``."""
        p, f = self.model.parameters, self.model.features
        n, n_types = self.n, p.n_synapse_types
        types = range(n_types)
        stepper, block = self._stepper, self._block
        flows = stepper.names
        kernel_kind, owner = f.accumulation_kernel, f.w_owner
        conductance = f.uses_conductance
        g_row, y_row = 1, 1 + n_types
        w_row = flows.index("w") if owner is not None else None
        r_row = flows.index("r") if owner is Feature.RR else None
        v = block[0]
        g = block[g_row:g_row + n_types]
        ys = block[y_row:y_row + n_types]

        use_rev = Feature.REV in f
        use_qdi, use_exi = Feature.QDI in f, Feature.EXI in f
        # Row scratch for the widest block the stepper hands the flow (a
        # member's columns are a prefix of it).
        buffer = np.empty(n)
        buffer2 = np.empty(n) if use_qdi else None

        tau, v_rest, theta, v_c = p.tau, p.v_rest, p.theta, p.v_c
        delta_t, exi_cap = p.delta_t, p.exi_cap
        tau_w, tau_r, a, v_w = p.tau_w, p.tau_r, p.a, p.v_w
        v_rr, v_ar = p.v_rr, p.v_ar
        tau_g = tuple(float(t) for t in p.tau_g[:n_types])
        v_g = tuple(float(x) for x in p.v_g[:n_types])

        def flow(_t: float, y: np.ndarray, out: np.ndarray) -> None:
            """``FeatureModel.derivatives``: ``y`` -> ``out``, both
            ``(n_flow, m)`` blocks of the stepper (never the same): all
            ``n`` columns, or one member's."""
            m = y.shape[1]
            tmp = buffer[:m]
            tmp2 = buffer2[:m] if use_qdi else None
            yv = y[0]
            drive = out[0]  # accumulates syn, then the drive, then dv/dt
            for i in types if conductance else ():
                yg = y[g_row + i]
                if kernel_kind is Feature.COBA:
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
            if owner is Feature.RR:
                yw, yr = y[w_row], y[r_row]
                np.subtract(v_rr, yv, out=tmp)
                tmp *= yr
                drive += tmp
                np.subtract(v_ar, yv, out=tmp)
                tmp *= yw
                drive += tmp
                np.divide(yw, -tau_w, out=out[w_row])
                np.divide(yr, -tau_r, out=out[r_row])
            elif owner is Feature.SBT:
                yw = y[w_row]
                drive += yw
                out_w = out[w_row]
                np.subtract(yv, v_w, out=out_w)
                out_w *= a
                out_w -= yw
                out_w /= tau_w
            elif owner is Feature.ADT:
                yw = y[w_row]
                drive += yw
                np.divide(yw, -tau_w, out=out[w_row])
            drive /= tau

        members = self._members
        charged = tuple(self._views.values()) or (self,)

        def kernel(x: np.ndarray) -> None:
            nonlocal g, ys, v
            if kernel_kind is Feature.COBA:
                ys += x
            elif kernel_kind is Feature.COBE:
                g += x
            else:
                for i in types:
                    v += x[i]
            evaluations = stepper.integrate(flow, 0.0, dt, h0=dt, members=members)
            for runtime, count in zip(charged, evaluations):
                runtime.evaluations += count
                runtime.advances += 1

        return kernel


class SolverRuntime(_SoftwareRuntime):
    """The dict-state oracle: one population's named state, advanced
    through the model's own methods.

    Under Euler a step is ``model.step``. Under RKF45 it applies
    ``model.apply_input_jumps``, copies the state into a stepper
    workspace, integrates ``model.derivatives`` (evaluated on dict
    snapshots) over ``dt`` with one stepper call (``h0 = dt``), copies
    the result back and runs ``model.fire_and_reset``. Any model runs
    here (Hodgkin-Huxley, native Izhikevich), and for feature models
    this is what :class:`CompiledRuntime` is pinned against:
    ``ReferenceBackend(use_engine=False)`` selects it.

    RKF45 integrates a model's continuous form between step boundaries,
    so a model without one (LID's linear decay is inherently discrete;
    a model may define no ``derivatives`` or no separate fire/reset
    phase) is refused here rather than by a ``NotImplementedError`` on
    step 0.
    """

    def __init__(self, name: str, n: int, model: NeuronModel, solver: str):
        super().__init__(name, n, model, solver)
        self._state = model.initial_state(n)
        self._stepper: Optional[RKF45Stepper] = None
        if self.solver == "Euler":
            return
        reason = None
        if Feature.LID in getattr(model, "features", ()):
            reason = "its LID feature (linear decay) has no continuous form"
        elif type(model).derivatives is NeuronModel.derivatives:
            reason = "it defines no continuous dynamics"
        elif type(model).fire_and_reset is NeuronModel.fire_and_reset:
            reason = "it defines no separate fire/reset phase"
        if reason is not None:
            raise ConfigurationError(
                f"population {name!r}: model {model.name!r} cannot be "
                f'integrated with RKF45 — {reason}; use solver: "Euler"'
            )
        names = tuple(self._state)
        self._stepper = RKF45Stepper((len(names), n), names)

    def _step(self, inputs: np.ndarray, dt: float) -> np.ndarray:
        model, state, stepper = self.model, self._state, self._stepper
        if stepper is None:  # Euler
            self.evaluations += 1
            self.advances += 1
            return model.step(state, inputs, dt)
        model.apply_input_jumps(state, inputs)
        names = stepper.names
        for i, name in enumerate(names):
            stepper.y[i] = state[name]

        def rhs(_t: float, y: np.ndarray, out: np.ndarray) -> None:
            deriv = model.derivatives(
                {name: y[i] for i, name in enumerate(names)}
            )
            for i, name in enumerate(names):
                out[i] = deriv.get(name, 0.0)

        (evaluations,) = stepper.integrate(rhs, 0.0, dt, h0=dt)
        self.evaluations += evaluations
        self.advances += 1
        for i, name in enumerate(names):
            state[name][:] = stepper.y[i]
        return model.fire_and_reset(state, dt)
