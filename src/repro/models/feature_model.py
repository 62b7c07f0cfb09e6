"""Generic feature-driven neuron model (Equations 2-8 in float64).

This is the paper's central observation turned into software: a neuron
model is a combination of biologically common features, so one engine
parameterised by a :class:`~repro.features.FeatureSet` simulates every
model in Table III. The Flexon hardware models implement *exactly* the
same discrete semantics in fixed point, which is what makes the
spike-equivalence validation of Section VI-A meaningful.

Discrete-step semantics (one call to :meth:`FeatureModel.step`):

1. **Refractory gating (AR)** — while the counter is positive, the
   accumulated input weights are suppressed (Equation 7).
2. **Synaptic kernels** — CUB passes inputs straight through; COBE
   integrates them into exponentially decaying conductances; COBA runs
   the alpha-function cascade through the auxiliary ``y`` variables
   (Equation 4).
3. **Reversal scaling (REV)** — each conductance's contribution is
   scaled by ``v_g,i - v`` (Equation 4).
4. **Membrane drive** — EXD adds the leak ``v0 - v``; QDI adds the
   quadratic term; EXI adds the exponential term (Equations 3, 5).
   These compose additively, matching the hardware's adder tree
   (Table V composes e.g. "QDI + EXD").
5. **LID** — linear decay is applied outside the ``eps_m`` scaling and
   is clamped so it stops at the resting voltage (the steady state in
   the paper's Figure 4); synaptic input is accumulated directly.
6. **Spike-triggered current** — ADT decays ``w``; SBT adds the
   subthreshold drive (Equation 6); RR decays both ``w`` and ``r`` and
   couples them through reversal terms (Equation 8).
7. **Fire & reset** — threshold is ``v_theta`` when a non-instant
   spike initiation (QDI/EXI) is enabled, ``theta`` otherwise; on fire
   the membrane resets and ``w``/``r``/``cnt`` jump (Equations 5-8).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.features import Feature, FeatureSet
from repro.models.base import ModelParameters, NeuronModel, State


class FeatureModel(NeuronModel):
    """A neuron model assembled from biologically common features."""

    name = "feature-model"

    def __init__(
        self,
        features: FeatureSet,
        parameters: Optional[ModelParameters] = None,
        name: Optional[str] = None,
    ):
        super().__init__(parameters)
        self.features = features
        if name is not None:
            self.name = name
        self._vars = features.state_variables(
            self.parameters.n_synapse_types
        )

    # -- state ------------------------------------------------------------

    def state_variable_names(self) -> Tuple[str, ...]:
        return self._vars

    # -- discrete step (the hardware-equivalent semantics) -----------------

    def step(self, state: State, inputs: np.ndarray, dt: float) -> np.ndarray:
        p = self.parameters
        f = self.features
        n_types = p.n_synapse_types
        if inputs.shape[0] != n_types:
            raise SimulationError(
                f"expected {n_types} input rows, got {inputs.shape[0]}"
            )
        v = state["v"]
        if inputs.shape[1] != v.shape[0]:
            raise SimulationError(
                f"input width {inputs.shape[1]} != population size {v.shape[0]}"
            )
        d = p.derived(dt)
        eps_m = d.eps_m
        eps_g = d.eps_g

        # 1. absolute refractory gates the inputs of silenced neurons
        gated = self._gate(state, inputs)

        # 2-3. synaptic kernels and reversal scaling
        syn = np.zeros_like(v)
        use_rev = Feature.REV in f
        for i in range(n_types):
            if Feature.COBA in f:
                y = state[f"y{i}"]
                y *= 1.0 - eps_g[i]
                y += gated[i]
                g = state[f"g{i}"]
                g *= 1.0 - eps_g[i]
                g += d.e_eps_g[i] * y
                contribution = g
            elif Feature.COBE in f:
                g = state[f"g{i}"]
                g *= 1.0 - eps_g[i]
                g += gated[i]
                contribution = g
            else:  # CUB: instantaneous, no stored conductance
                contribution = gated[i]
            if use_rev:
                syn += (p.v_g[i] - v) * contribution
            else:
                syn += contribution

        # 4-5. membrane update
        if Feature.LID in f:
            # Linear decay clamps at the resting voltage: the decrement
            # never pulls v below v_rest (Figure 4's steady state).
            leak = np.minimum(d.leak_max, np.maximum(v - p.v_rest, 0.0))
            v_new = v + syn - leak
        else:
            drive = syn + (p.v_rest - v)
            if Feature.QDI in f:
                drive = drive + (p.v_rest - v) * (p.v_c - v)
            if Feature.EXI in f:
                drive = drive + p.delta_t * np.exp((v - p.theta) / p.delta_t)
            v_new = v + eps_m * drive

        # 6. spike-triggered current and relative refractory (use old v)
        if Feature.RR in f:
            w = state["w"]
            r = state["r"]
            w *= d.one_minus_eps_w
            r *= d.one_minus_eps_r
            v_new = v_new + r * (p.v_rr - v) + w * (p.v_ar - v)
        elif Feature.SBT in f:
            w = state["w"]
            w *= d.one_minus_eps_w
            w += d.sbt_gain * (v - p.v_w)
            v_new = v_new + w
        elif Feature.ADT in f:
            w = state["w"]
            w *= d.one_minus_eps_w
            v_new = v_new + w

        # 7. fire & reset
        state["v"] = v_new
        return self.fire_and_reset(state, dt)

    # -- continuous dynamics (for RKF45 ground truth) -----------------------

    def derivatives(self, state: State) -> State:
        """Standard continuous-time form of the enabled features.

        The discrete per-step couplings of Equations 6 and 8 correspond
        to currents scaled by ``tau / dt``; here the conventional
        neuroscience form (couplings divided by tau) is used, which is
        what the RKF45-solved workloads of Table I integrate.
        LID is inherently discrete and unsupported here.
        """
        p = self.parameters
        f = self.features
        if Feature.LID in f:
            raise NotImplementedError("LID has no continuous form")
        v = state["v"]
        out: State = {}
        syn = np.zeros_like(v)
        for i in range(p.n_synapse_types):
            if Feature.COBA in f:
                y = state[f"y{i}"]
                g = state[f"g{i}"]
                out[f"y{i}"] = -y / p.tau_g[i]
                out[f"g{i}"] = (math.e * y - g) / p.tau_g[i]
                contribution = g
            elif Feature.COBE in f:
                g = state[f"g{i}"]
                out[f"g{i}"] = -g / p.tau_g[i]
                contribution = g
            else:
                contribution = np.zeros_like(v)
            if Feature.REV in f:
                syn += (p.v_g[i] - v) * contribution
            else:
                syn += contribution
        drive = syn + (p.v_rest - v)
        if Feature.QDI in f:
            drive = drive + (p.v_rest - v) * (p.v_c - v)
        if Feature.EXI in f:
            drive = drive + p.delta_t * np.exp(
                np.minimum((v - p.theta) / p.delta_t, p.exi_cap)
            )
        if Feature.RR in f:
            w = state["w"]
            r = state["r"]
            drive = drive + r * (p.v_rr - v) + w * (p.v_ar - v)
            out["w"] = -w / p.tau_w
            out["r"] = -r / p.tau_r
        elif Feature.SBT in f:
            w = state["w"]
            drive = drive + w
            out["w"] = (p.a * (v - p.v_w) - w) / p.tau_w
        elif Feature.ADT in f:
            w = state["w"]
            drive = drive + w
            out["w"] = -w / p.tau_w
        out["v"] = drive / p.tau
        if Feature.AR in f:
            out["cnt"] = np.zeros_like(v)  # counters do not flow
        return out

    # -- adaptive-solver hooks ------------------------------------------------

    def apply_input_jumps(self, state: State, inputs: np.ndarray) -> None:
        """Deliver this step's input weights as instantaneous jumps.

        CUB adds straight to the membrane potential; COBE jumps the
        conductances; COBA jumps the alpha-cascade ``y`` variables.
        AR gating applies exactly as in :meth:`step`.
        """
        f = self.features
        gated = self._gate(state, inputs)
        for i in range(self.parameters.n_synapse_types):
            if Feature.COBA in f:
                state[f"y{i}"] += gated[i]
            elif Feature.COBE in f:
                state[f"g{i}"] += gated[i]
            else:
                state["v"] += gated[i]

    def _gate(self, state: State, inputs: np.ndarray) -> np.ndarray:
        """The inputs absolute refractory lets through (all without AR)."""
        if Feature.AR in self.features:
            return inputs * (state["cnt"] <= 0.0)
        return inputs

    def fire_and_reset(self, state: State, dt: float) -> np.ndarray:
        """Threshold check, resets, and refractory bookkeeping."""
        p = self.parameters
        f = self.features
        v = state["v"]
        fired = v > f.threshold(p)
        v[fired] = p.reset_voltage
        # Spike-triggered jumps. In RR mode the w/r "conductances" are
        # reversal-coupled (Equation 8), so they must *grow* on a spike
        # for the coupling toward the sub-rest reversal voltages to
        # inhibit — the PyNN gsfa/grr semantics. (The paper writes the
        # jumps with a minus sign, absorbing it into the constants.)
        # In direct-coupling mode (ADT/SBT) the current itself is added
        # to v, so the jump is negative.
        if Feature.RR in f:
            state["w"][fired] += p.b
            state["r"][fired] += p.q_r
        elif f.has_adaptation_state:
            state["w"][fired] -= p.b
        if Feature.AR in f:
            cnt = state["cnt"]
            np.maximum(cnt - 1.0, 0.0, out=cnt)
            cnt[fired] = float(p.refractory_steps(dt))
        return fired

    # -- cost-model introspection -------------------------------------------

    def ops_per_update(self) -> Dict[str, int]:
        """Arithmetic ops for one Euler update of one neuron.

        Counts multiplies, adds, exponentials and comparisons implied by
        the enabled features; the CPU/GPU cost models scale these by
        per-op costs and, for RKF45, by the number of stage evaluations.
        """
        f = self.features
        n_types = self.parameters.n_synapse_types
        muls, adds, exps, cmps = 0, 0, 0, 1  # threshold compare
        if Feature.LID in f:
            adds += 2
            cmps += 1  # leak clamp
        else:
            muls += 1  # eps_m * drive
            adds += 2
        for _ in range(n_types):
            if Feature.COBA in f:
                muls += 3
                adds += 3
            elif Feature.COBE in f:
                muls += 1
                adds += 2
            else:
                adds += 1
            if Feature.REV in f:
                muls += 1
                adds += 1
        if Feature.QDI in f:
            muls += 2
            adds += 2
        if Feature.EXI in f:
            muls += 2
            adds += 2
            exps += 1
        if Feature.SBT in f:
            muls += 3
            adds += 3
        elif Feature.ADT in f:
            muls += 1
            adds += 1
        if Feature.RR in f:
            muls += 4
            adds += 5
        if Feature.AR in f:
            adds += 1
            cmps += 1
        return {"mul": muls, "add": adds, "exp": exps, "cmp": cmps}
