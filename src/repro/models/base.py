"""Neuron model base classes and parameter handling.

All voltages are expressed in the paper's *shift & scale* units
(Section IV-B1): the resting voltage is 0 and the threshold voltage is
1.0 by default. Time constants are in seconds. Per-step quantities
(``eps_m = dt / tau`` etc.) are derived at simulation time so the same
parameter set works for any time step.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: A neuron population's state: variable name -> float64 array of length n.
State = Dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelParameters:
    """Constants of the extended LIF family (Equations 2-8).

    Only the constants used by a model's enabled features matter; the
    rest are ignored. Defaults are biologically plausible values mapped
    into scaled units where 1 voltage unit = (threshold - rest), i.e.
    roughly 15 mV for a -65 mV rest / -50 mV threshold neuron.
    """

    # -- core LIF (Equation 2) ------------------------------------------
    tau: float = 20e-3  #: membrane time constant [s]
    v_rest: float = 0.0  #: resting voltage v0 (scaled)
    theta: float = 1.0  #: threshold voltage (scaled)
    v_reset: Optional[float] = None  #: post-spike voltage; None -> v_rest

    # -- LID (Equation 3) ------------------------------------------------
    leak_rate: float = 10.0  #: linear decay rate [scaled volts / s]

    # -- input spike accumulation (Equation 4) ---------------------------
    n_synapse_types: int = 2  #: e.g. excitatory and inhibitory
    tau_g: Tuple[float, ...] = (5e-3, 10e-3)  #: conductance decay [s] per type
    v_g: Tuple[float, ...] = (4.33, -1.0)  #: reversal voltage per type

    # -- spike initiation (Equation 5) ------------------------------------
    v_theta: float = 2.0  #: firing voltage for QDI/EXI (> theta)
    delta_t: float = 0.133  #: EXI sharpness factor
    v_c: float = 0.5  #: QDI critical voltage

    # -- spike-triggered current (Equation 6) ----------------------------
    tau_w: float = 100e-3  #: adaptation decay time constant [s]
    a: float = 0.02  #: SBT subthreshold coupling constant
    v_w: float = 0.2  #: SBT oscillation target voltage
    b: float = 0.05  #: spike-triggered jump size

    # -- refractory (Equations 7, 8) --------------------------------------
    t_ref: float = 2e-3  #: AR period [s]
    tau_r: float = 2e-3  #: RR decay time constant [s]
    q_r: float = 0.3  #: RR jump size
    v_rr: float = -1.0  #: RR reversal voltage
    v_ar: float = -0.5  #: adaptation reversal voltage (Equation 8)

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(v is None or math.isfinite(v) for v in values):
                raise ConfigurationError(
                    f"{item.name} must be finite, got {value}"
                )
        for name in ("tau", "tau_w", "tau_r", "delta_t"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        for name in ("t_ref", "leak_rate"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.n_synapse_types < 1:
            raise ConfigurationError("need at least one synapse type")
        if len(self.tau_g) < self.n_synapse_types:
            raise ConfigurationError(
                f"tau_g has {len(self.tau_g)} entries for "
                f"{self.n_synapse_types} synapse types"
            )
        if len(self.v_g) < self.n_synapse_types:
            raise ConfigurationError(
                f"v_g has {len(self.v_g)} entries for "
                f"{self.n_synapse_types} synapse types"
            )
        if any(t <= 0 for t in self.tau_g[: self.n_synapse_types]):
            raise ConfigurationError(
                f"tau_g must be positive, got {self.tau_g}"
            )
        if self.theta <= self.v_rest:
            raise ConfigurationError("theta must exceed v_rest")

    @property
    def reset_voltage(self) -> float:
        """Post-spike voltage (v_reset, defaulting to v_rest)."""
        return self.v_rest if self.v_reset is None else self.v_reset

    @property
    def exi_cap(self) -> float:
        """Ceiling of the continuous EXI exponent ``(v - theta) / delta_t``:
        a little above the firing point, since beyond ``v_theta`` a spike
        is emitted at the step boundary anyway, and resolving the
        divergence more finely only wastes adaptive-solver substeps."""
        return (self.v_theta - self.theta) / self.delta_t + 2.0

    def with_overrides(self, **changes) -> "ModelParameters":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def eps_m(self, dt: float) -> float:
        """Per-step membrane decay factor ``dt / tau``."""
        return dt / self.tau

    def eps_g(self, dt: float) -> Tuple[float, ...]:
        """Per-step conductance decay factors, one per synapse type."""
        return tuple(dt / t for t in self.tau_g[: self.n_synapse_types])

    def eps_w(self, dt: float) -> float:
        """Per-step adaptation decay factor."""
        return dt / self.tau_w

    def eps_r(self, dt: float) -> float:
        """Per-step relative-refractory decay factor."""
        return dt / self.tau_r

    def refractory_steps(self, dt: float) -> int:
        """AR counter reload value cnt_max for the given time step."""
        return max(1, int(round(self.t_ref / dt)))

    def derived(self, dt: float) -> "DerivedConstants":
        """The per-step constants this parameter set lowers to at ``dt``.

        This is the feature-lowering entry point: everything a per-step
        update kernel needs that does not depend on the population state
        is folded into one cached bundle, which the float model, the
        compiled engine kernel and the fixed-point constants
        (``hardware.constants``) all read, so none of them recomputes
        ``dt / tau`` (and friends).
        """
        return _derive_constants(self, dt)


@dataclass(frozen=True)
class DerivedConstants:
    """Per-step scalars lowered from a ``ModelParameters`` at a fixed dt.

    Products such as ``one_minus_eps_g`` are precomputed in the exact
    float64 expression order used by
    :meth:`~repro.models.feature_model.FeatureModel.step`, which is what
    lets the compiled engine kernel stay bit-identical to the
    dict-state reference path.
    """

    dt: float
    eps_m: float
    eps_g: Tuple[float, ...]
    one_minus_eps_g: Tuple[float, ...]
    #: COBA cascade gain per synapse type (``e * eps_g``).
    e_eps_g: Tuple[float, ...]
    eps_w: float
    one_minus_eps_w: float
    eps_r: float
    one_minus_eps_r: float
    #: LID decrement per step (``leak_rate * dt``).
    leak_max: float
    #: SBT subthreshold gain per step (``eps_m * a``).
    sbt_gain: float
    #: AR counter reload value.
    cnt_reload: int


@lru_cache(maxsize=512)
def _derive_constants(parameters: ModelParameters, dt: float) -> DerivedConstants:
    eps_m = parameters.eps_m(dt)
    eps_g = parameters.eps_g(dt)
    eps_w = parameters.eps_w(dt)
    eps_r = parameters.eps_r(dt)
    return DerivedConstants(
        dt=dt,
        eps_m=eps_m,
        eps_g=eps_g,
        one_minus_eps_g=tuple(1.0 - e for e in eps_g),
        e_eps_g=tuple(math.e * e for e in eps_g),
        eps_w=eps_w,
        one_minus_eps_w=1.0 - eps_w,
        eps_r=eps_r,
        one_minus_eps_r=1.0 - eps_r,
        leak_max=parameters.leak_rate * dt,
        sbt_gain=eps_m * parameters.a,
        cnt_reload=parameters.refractory_steps(dt),
    )


class NeuronModel(abc.ABC):
    """A population-level neuron model.

    Models are *vectorised*: every method operates on all ``n`` neurons
    of a population at once. State is a plain dict of float64 arrays so
    solvers and recorders can treat it uniformly.
    """

    #: Human-readable canonical name, set by subclasses.
    name: str = "abstract"

    def __init__(self, parameters: Optional[ModelParameters] = None):
        self.parameters = parameters if parameters is not None else ModelParameters()

    # -- state ------------------------------------------------------------

    @abc.abstractmethod
    def state_variable_names(self) -> Tuple[str, ...]:
        """Names of the per-neuron state variables, ``v`` first."""

    def initial_state(self, n: int) -> State:
        """Fresh state for ``n`` neurons, every variable at its rest value."""
        state = {
            name: np.zeros(n, dtype=np.float64)
            for name in self.state_variable_names()
        }
        state["v"][:] = self.parameters.v_rest
        return state

    # -- dynamics ----------------------------------------------------------

    @abc.abstractmethod
    def step(self, state: State, inputs: np.ndarray, dt: float) -> np.ndarray:
        """Advance one time step in place; return the boolean fired mask.

        ``inputs`` has shape ``(n_synapse_types, n)`` and holds the
        accumulated synaptic weights delivered this step (the output of
        the synapse-calculation phase).
        """

    def derivatives(self, state: State) -> State:
        """Continuous-time right-hand sides for adaptive solvers.

        Only the smooth part of the dynamics belongs here; resets,
        refractory counters, and input-spike jumps are discrete events
        handled by :meth:`step` / the simulator. Models that are
        inherently discrete (e.g. LLIF) may not support this.
        """
        raise NotImplementedError(
            f"{self.name} does not define continuous dynamics"
        )

    def apply_input_jumps(self, state: State, inputs: np.ndarray) -> None:
        """Apply this step's accumulated input weights as state jumps.

        Used by adaptive solvers (which integrate only the smooth part):
        spike arrivals are instantaneous jumps applied between solver
        steps. Default: add both synapse-type rows directly to ``v``
        (current-based behaviour).
        """
        state["v"] += inputs.sum(axis=0)

    def fire_and_reset(self, state: State, dt: float) -> np.ndarray:
        """Check the firing condition, apply resets; return fired mask.

        Used by adaptive solvers after integrating the smooth dynamics.
        """
        raise NotImplementedError(
            f"{self.name} does not define a separate fire/reset phase"
        )

    # -- introspection ------------------------------------------------------

    def ops_per_update(self) -> Dict[str, int]:
        """Approximate arithmetic-operation counts for one Euler update.

        Used by the CPU/GPU cost models (Figure 3 / 13). Keys: ``mul``,
        ``add``, ``exp``, ``cmp``. Subclasses refine this.
        """
        return {"mul": 2, "add": 3, "exp": 0, "cmp": 1}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
