"""Izhikevich's simple model in its native (v, u) formulation.

The paper maps Izhikevich onto features (Table III: EXD + COBE + REV +
QDI + ADT + AR; ``create_model("Izhikevich")``), with the quadratic
initiation supplying the ``0.04 v^2``-style acceleration and the
adaptation current playing the role of the recovery variable ``u``.
:class:`NativeIzhikevich` is the original two-variable formulation
(Izhikevich 2003)::

    v' = 0.04 v^2 + 5 v + 140 - u + I
    u' = a (b v - u)
    if v >= 30 mV: v <- c, u <- u + d

kept in its native millivolt units. It exists as an independent
cross-check: tests verify that both formulations produce the same
qualitative behaviours (tonic spiking, adaptation) even though their
state spaces differ.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.base import ModelParameters, NeuronModel, State


class NativeIzhikevich(NeuronModel):
    """Izhikevich's original (v, u) formulation in millivolt units.

    The regime is set by the classic ``(a, b, c, d)`` quadruple;
    defaults give regular (tonic) spiking. Inputs are interpreted as
    currents in the model's native units; both synapse-type rows of the
    input array are summed (inhibitory weights should be negative).
    """

    name = "NativeIzhikevich"

    def __init__(
        self,
        a: float = 0.02,
        b: float = 0.2,
        c: float = -65.0,
        d: float = 8.0,
        parameters: Optional[ModelParameters] = None,
    ):
        super().__init__(parameters)
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def state_variable_names(self) -> Tuple[str, ...]:
        return ("v", "u")

    def initial_state(self, n: int) -> State:
        state = {
            "v": np.full(n, self.c, dtype=np.float64),
            "u": np.full(n, self.b * self.c, dtype=np.float64),
        }
        return state

    def step(self, state: State, inputs: np.ndarray, dt: float) -> np.ndarray:
        # The canonical formulation advances in 1 ms units; dt arrives
        # in seconds.
        ms = dt * 1e3
        v = state["v"]
        u = state["u"]
        current = inputs.sum(axis=0)
        dv = 0.04 * v * v + 5.0 * v + 140.0 - u + current
        du = self.a * (self.b * v - u)
        v += ms * dv
        u += ms * du
        fired = v >= 30.0
        v[fired] = self.c
        u[fired] += self.d
        return fired

    def derivatives(self, state: State) -> State:
        v = state["v"]
        u = state["u"]
        return {
            # per second: the native equations are per millisecond
            "v": (0.04 * v * v + 5.0 * v + 140.0 - u) * 1e3,
            "u": self.a * (self.b * v - u) * 1e3,
        }

    def ops_per_update(self):
        return {"mul": 5, "add": 6, "exp": 0, "cmp": 1}
