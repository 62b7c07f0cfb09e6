"""StepPlan: a population's per-step update, lowered ahead of time.

GeNN-style simulators get their speed by compiling the model
description into a flat kernel once and then looping over preallocated
dense arrays. :func:`compile_step_plan` is that compile step for this
repo: it lowers a :class:`~repro.models.feature_model.FeatureModel`'s
``FeatureSet`` + ``ModelParameters`` + ``dt`` into a :class:`StepPlan`
— every feature flag resolved to a plain bool, every ``eps_*`` scalar
precomputed, and the per-synapse-type constants laid out as column
vectors that broadcast over a structure-of-arrays state (see
:class:`~repro.engine.runtime.CompiledRuntime`).

The lowered arithmetic reproduces ``FeatureModel.step`` operation for
operation, so a plan-driven Euler update is bit-identical to the
dict-state reference path — the property the engine equivalence tests
pin down.

:func:`compile_flow_plan` is the same lowering for adaptive (RKF45)
integration: a :class:`FlowPlan` resolves the feature set and the
continuous-time constants of ``FeatureModel.derivatives`` /
``apply_input_jumps`` / ``fire_and_reset`` once, and
:meth:`~repro.engine.runtime.SolverRuntime.lowered` builds in-place
kernels from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.features import Feature, FeatureSet
from repro.models.base import NeuronModel
from repro.models.feature_model import FeatureModel

#: Euler's number, matching the COBA cascade gain of FeatureModel.step.
_E = float(np.e)


@dataclass(frozen=True)
class StepPlan:
    """A flat, fully resolved per-population update recipe for one dt.

    All feature dispatch is folded into plain bools and the per-step
    scalars are precomputed, so executing the plan performs no dict
    lookups, no ``Feature ... in feature_set`` membership tests, and no
    ``dt / tau`` arithmetic. Arrays are column vectors of shape
    ``(n_synapse_types, 1)`` so they broadcast over ``(types, n)``
    state blocks.
    """

    model_name: str
    dt: float
    n_synapse_types: int
    state_names: Tuple[str, ...]

    # -- resolved feature dispatch --------------------------------------
    kernel: str  #: input-accumulation kernel: "CUB", "COBE", or "COBA"
    adaptation: Optional[str]  #: "ADT", "SBT", "RR", or None
    use_ar: bool
    use_rev: bool
    use_lid: bool
    use_qdi: bool
    use_exi: bool

    # -- membrane scalars ------------------------------------------------
    eps_m: float
    v_rest: float
    theta: float
    v_c: float
    delta_t: float
    leak_max: float
    threshold: float
    reset_voltage: float

    # -- adaptation / refractory scalars ---------------------------------
    one_minus_eps_w: float
    one_minus_eps_r: float
    sbt_gain: float
    v_w: float
    v_rr: float
    v_ar: float
    b: float
    q_r: float
    cnt_reload: float

    # -- per-synapse-type columns, shape (n_synapse_types, 1) ------------
    one_minus_eps_g: np.ndarray
    e_eps_g: np.ndarray
    v_g: np.ndarray

    @property
    def uses_conductance(self) -> bool:
        return self.kernel in ("COBE", "COBA")

    @property
    def has_adaptation_state(self) -> bool:
        return self.adaptation is not None


def _resolve_dispatch(features: FeatureSet) -> Tuple[str, Optional[str]]:
    """The ``(kernel, adaptation)`` branch every feature-model method
    takes, in the precedence of its ``if``/``elif`` ladders."""
    if Feature.COBA in features:
        kernel = "COBA"
    elif Feature.COBE in features:
        kernel = "COBE"
    else:
        kernel = "CUB"
    if Feature.RR in features:
        adaptation: Optional[str] = "RR"
    elif Feature.SBT in features:
        adaptation = "SBT"
    elif Feature.ADT in features:
        adaptation = "ADT"
    else:
        adaptation = None
    return kernel, adaptation


def supports_step_plan(model: NeuronModel) -> bool:
    """Whether ``model``'s semantics are exactly the feature lowering.

    Only models that inherit the canonical ``FeatureModel.step`` (and
    the stock zero-initialised state) can be compiled — a subclass that
    overrides either has private semantics the plan would silently
    diverge from, so it falls back to the solver path.
    """
    return (
        isinstance(model, FeatureModel)
        and type(model).step is FeatureModel.step
        and type(model).initial_state is NeuronModel.initial_state
    )


def compile_step_plan(model: NeuronModel, dt: float) -> StepPlan:
    """Lower a feature model at a fixed ``dt`` into a :class:`StepPlan`."""
    if not supports_step_plan(model):
        raise ValueError(
            f"model {model.name!r} does not use the canonical feature-model "
            "step semantics; no step plan can be compiled for it"
        )
    p = model.parameters
    f = model.features
    d = p.derived(dt)
    n_types = p.n_synapse_types
    kernel, adaptation = _resolve_dispatch(f)

    def column(values) -> np.ndarray:
        arr = np.array(values, dtype=np.float64).reshape(n_types, 1)
        arr.setflags(write=False)
        return arr

    return StepPlan(
        model_name=model.name,
        dt=dt,
        n_synapse_types=n_types,
        state_names=model.state_variable_names(),
        kernel=kernel,
        adaptation=adaptation,
        use_ar=Feature.AR in f,
        use_rev=Feature.REV in f,
        use_lid=Feature.LID in f,
        use_qdi=Feature.QDI in f,
        use_exi=Feature.EXI in f,
        eps_m=d.eps_m,
        v_rest=p.v_rest,
        theta=p.theta,
        v_c=p.v_c,
        delta_t=p.delta_t,
        leak_max=d.leak_max,
        threshold=p.v_theta if f.spike_initiation is not None else p.theta,
        reset_voltage=p.reset_voltage,
        one_minus_eps_w=d.one_minus_eps_w,
        one_minus_eps_r=d.one_minus_eps_r,
        sbt_gain=d.sbt_gain,
        v_w=p.v_w,
        v_rr=p.v_rr,
        v_ar=p.v_ar,
        b=p.b,
        q_r=p.q_r,
        cnt_reload=float(d.cnt_reload),
        one_minus_eps_g=column(d.one_minus_eps_g),
        e_eps_g=column(tuple(_E * e for e in d.eps_g)),
        v_g=column(p.v_g[:n_types]),
    )


@dataclass(frozen=True)
class FlowPlan:
    """A population's continuous-time dynamics, resolved once.

    The adaptive counterpart of :class:`StepPlan`: feature dispatch as
    plain bools and the constants of ``FeatureModel.derivatives``,
    ``apply_input_jumps`` and ``fire_and_reset`` as plain floats (per
    synapse type: one tuple entry each). Unlike a
    ``StepPlan`` it does not depend on ``dt``: the adaptive stepper
    picks its own substeps, and the one ``dt``-dependent constant (the
    AR reload) is asked of ``ModelParameters.refractory_steps`` by the
    fire/reset kernel per call.

    ``flow_names`` are the variables the stepper integrates, in block
    row order; ``cnt`` is a state variable but not one of them (a
    counter does not flow, so it never enters the error norm or the
    stage arithmetic).
    """

    n_synapse_types: int
    state_names: Tuple[str, ...]
    flow_names: Tuple[str, ...]

    # -- resolved feature dispatch --------------------------------------
    kernel: str  #: input-accumulation kernel: "CUB", "COBE", or "COBA"
    adaptation: Optional[str]  #: "ADT", "SBT", "RR", or None
    use_ar: bool
    use_rev: bool
    use_qdi: bool
    use_exi: bool

    # -- membrane scalars ------------------------------------------------
    tau: float
    v_rest: float
    theta: float
    v_c: float
    delta_t: float
    exi_cap: float  #: ceiling of the EXI exponent (see ``derivatives``)
    threshold: float
    reset_voltage: float

    # -- adaptation / refractory scalars ---------------------------------
    tau_w: float
    tau_r: float
    a: float
    v_w: float
    v_rr: float
    v_ar: float
    b: float
    q_r: float

    # -- per-synapse-type constants, length n_synapse_types --------------
    tau_g: Tuple[float, ...]
    v_g: Tuple[float, ...]


def supports_flow_plan(model: NeuronModel) -> bool:
    """Whether ``model``'s adaptive semantics are exactly the feature
    lowering: the canonical ``derivatives`` / ``apply_input_jumps`` /
    ``fire_and_reset`` over the stock initial state, and a continuous
    form to integrate (LID has none).
    """
    return (
        isinstance(model, FeatureModel)
        and type(model).derivatives is FeatureModel.derivatives
        and type(model).apply_input_jumps is FeatureModel.apply_input_jumps
        and type(model).fire_and_reset is FeatureModel.fire_and_reset
        and type(model).initial_state is NeuronModel.initial_state
        and Feature.LID not in model.features
    )


def compile_flow_plan(model: NeuronModel) -> FlowPlan:
    """Lower a feature model's continuous dynamics into a :class:`FlowPlan`."""
    if not supports_flow_plan(model):
        raise ValueError(
            f"model {model.name!r} does not use the canonical feature-model "
            "continuous dynamics; no flow plan can be compiled for it"
        )
    p = model.parameters
    f = model.features
    n_types = p.n_synapse_types
    kernel, adaptation = _resolve_dispatch(f)
    state_names = model.state_variable_names()
    return FlowPlan(
        n_synapse_types=n_types,
        state_names=state_names,
        flow_names=tuple(name for name in state_names if name != "cnt"),
        kernel=kernel,
        adaptation=adaptation,
        use_ar=Feature.AR in f,
        use_rev=Feature.REV in f,
        use_qdi=Feature.QDI in f,
        use_exi=Feature.EXI in f,
        tau=p.tau,
        v_rest=p.v_rest,
        theta=p.theta,
        v_c=p.v_c,
        delta_t=p.delta_t,
        exi_cap=(p.v_theta - p.theta) / p.delta_t + 2.0,
        threshold=p.v_theta if f.spike_initiation is not None else p.theta,
        reset_voltage=p.reset_voltage,
        tau_w=p.tau_w,
        tau_r=p.tau_r,
        a=p.a,
        v_w=p.v_w,
        v_rr=p.v_rr,
        v_ar=p.v_ar,
        b=p.b,
        q_r=p.q_r,
        tau_g=tuple(float(t) for t in p.tau_g[:n_types]),
        v_g=tuple(float(x) for x in p.v_g[:n_types]),
    )
