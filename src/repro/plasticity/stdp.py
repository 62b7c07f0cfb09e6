"""Pair-based STDP with lazy, event-driven traces.

The classic trace formulation (Morrison, Diesmann & Gerstner 2008):
each presynaptic neuron keeps a trace ``x`` and each postsynaptic
neuron a trace ``y``::

    x_i(t) = x_i(t - dt) * exp(-dt / tau_plus)   (+1 when i fires)
    y_j(t) = y_j(t - dt) * exp(-dt / tau_minus)  (+1 when j fires)

    on a pre spike  i:  w_ij -= a_minus * y_j(t)   (depression: post
                        fired *before* this pre spike)
    on a post spike j:  w_ij += a_plus  * x_i(t)   (potentiation: pre
                        fired *before* this post spike)

The exponential decay is *memoryless*, so the per-step multiplication
above never has to be materialised: a trace is fully described by its
value at the last event and that event's step index, and its value
``k`` steps later is obtained analytically in one multiply::

    x_i(t_last + k·dt) = x_i(t_last) · exp(-k·dt / tau)

This is the lazy scheme of Bautembach et al. ("Even Faster SNN
Simulation with Lazy+Event-driven Plasticity"): store per-neuron
``(last_update_step, trace_value)`` pairs, decay analytically only
when a pre/post neuron actually spikes, and defer every weight update
to a spike event. A silent step costs *nothing* — plasticity work
scales with spike traffic, not with neuron or synapse count.

:class:`PairSTDP` defaults to this deferred mode. ``deferred=False``
selects the dense reference schedule: identical event arithmetic (the
same analytic-decay reads, in the same order, so spike trains are
bit-identical between the two modes by construction) plus a full
materialisation of every trace every step — the historical per-step
cost profile, kept as the pinned baseline the benchmark and the CI
smoke compare the lazy path against.

Weights are clipped to ``[w_min, w_max]`` after each step's updates;
only the synapses touched by that step's events are clipped (untouched
weights cannot leave the range they were in).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.network.projection import Projection


class PlasticityRule(abc.ABC):
    """A weight-update rule bound to one projection by the simulator."""

    def __init__(self) -> None:
        self.projection: Optional[Projection] = None

    def attach(self, projection: Projection) -> None:
        """Bind to a projection; allocates per-neuron state."""
        if self.projection is not None and self.projection is not projection:
            raise ConfigurationError(
                "plasticity rule is already attached to "
                f"{self.projection.name!r}"
            )
        self.projection = projection

    @abc.abstractmethod
    def step(
        self,
        fired_pre: np.ndarray,
        fired_post: np.ndarray,
        dt: float,
    ) -> None:
        """Advance one time step and apply the step's weight updates.

        ``fired_pre`` / ``fired_post`` are index arrays of the neurons
        that fired this step in the pre/post populations.
        """

    def publish_metrics(self, metrics) -> None:
        """Publish the rule's lifetime counters into a telemetry
        registry (collect-time only; the base rule has nothing to
        report)."""

    def snapshot(self) -> dict:
        """Mutable rule state (traces and weights) for checkpointing.

        The base refuses so a custom rule without checkpoint support
        fails loudly at capture time instead of resuming wrong.
        """
        raise CheckpointError(
            f"plasticity rule {type(self).__name__} does not support "
            "checkpointing"
        )

    def restore(self, payload: dict) -> None:
        """Overwrite the rule's mutable state from a :meth:`snapshot`."""
        raise CheckpointError(
            f"plasticity rule {type(self).__name__} does not support "
            "checkpointing"
        )


class PairSTDP(PlasticityRule):
    """All-to-all pair-based STDP with lazily-decayed traces."""

    def __init__(
        self,
        a_plus: float = 0.01,
        a_minus: float = 0.012,
        tau_plus: float = 20e-3,
        tau_minus: float = 20e-3,
        w_min: float = 0.0,
        w_max: float = 1.0,
        deferred: bool = True,
    ):
        super().__init__()
        if tau_plus <= 0 or tau_minus <= 0:
            raise ConfigurationError("STDP time constants must be positive")
        if w_min > w_max:
            raise ConfigurationError("w_min must not exceed w_max")
        self.a_plus = a_plus
        self.a_minus = a_minus
        self.tau_plus = tau_plus
        self.tau_minus = tau_minus
        self.w_min = w_min
        self.w_max = w_max
        self.deferred = deferred
        self._x_val: Optional[np.ndarray] = None
        self._x_last: Optional[np.ndarray] = None
        self._y_val: Optional[np.ndarray] = None
        self._y_last: Optional[np.ndarray] = None
        self._now = 0
        self._dt: Optional[float] = None
        #: Per-neuron trace updates skipped relative to the dense
        #: schedule (telemetry: ``plasticity_deferred_updates_total``).
        self.deferred_updates = 0
        #: Synaptic weight updates actually applied at spike events.
        self.applied_updates = 0
        #: Analytic trace evaluations performed (reads and bumps).
        self.trace_refreshes = 0
        #: Steps this rule has processed.
        self.steps_seen = 0

    # -- attachment --------------------------------------------------------

    def attach(self, projection: Projection) -> None:
        super().attach(projection)
        self._x_val = np.zeros(projection.pre.n, dtype=np.float64)
        self._x_last = np.zeros(projection.pre.n, dtype=np.int64)
        self._y_val = np.zeros(projection.post.n, dtype=np.float64)
        self._y_last = np.zeros(projection.post.n, dtype=np.int64)

    def _require_attached(self) -> None:
        if self.projection is None or self._x_val is None:
            raise SimulationError("rule not attached to a projection")

    # -- trace views -------------------------------------------------------

    def _materialise(self, values, last, tau) -> np.ndarray:
        """Every trace analytically decayed to the current step."""
        if self._dt is None:
            return values.copy()
        return values * np.exp((last - self._now) * (self._dt / tau))

    @property
    def pre_trace(self) -> np.ndarray:
        """The presynaptic traces at the current step (materialised)."""
        self._require_attached()
        return self._materialise(self._x_val, self._x_last, self.tau_plus)

    @property
    def post_trace(self) -> np.ndarray:
        """The postsynaptic traces at the current step (materialised)."""
        self._require_attached()
        return self._materialise(self._y_val, self._y_last, self.tau_minus)

    # -- the step ----------------------------------------------------------

    def step(
        self,
        fired_pre: np.ndarray,
        fired_post: np.ndarray,
        dt: float,
    ) -> None:
        self._require_attached()
        if self._dt is None:
            self._dt = dt
        elif dt != self._dt:
            raise SimulationError(
                f"PairSTDP stepped with dt={dt} after dt={self._dt}; lazy "
                "trace timestamps require a constant step size"
            )
        projection = self.projection
        weights = projection.weights
        self._now += 1
        now = self._now
        self.steps_seen += 1
        n_dense = self._x_val.size + self._y_val.size
        refreshes = 0

        # 1. depression: pre spikes read the post traces at this step
        dep_synapses = pot_synapses = None
        if fired_pre.size:
            dep_synapses = projection.synapse_indices_of(fired_pre)
            if dep_synapses.size:
                posts = projection.post_of(dep_synapses)
                decay = np.exp(
                    (self._y_last[posts] - now) * (dt / self.tau_minus)
                )
                weights[dep_synapses] -= self.a_minus * (
                    self._y_val[posts] * decay
                )
                refreshes += posts.size

        # 2. potentiation: post spikes read the pre traces
        if fired_post.size:
            pot_synapses = projection.synapse_indices_into(fired_post)
            if pot_synapses.size:
                pres = projection.pre_of_synapses()[pot_synapses]
                decay = np.exp(
                    (self._x_last[pres] - now) * (dt / self.tau_plus)
                )
                weights[pot_synapses] += self.a_plus * (
                    self._x_val[pres] * decay
                )
                refreshes += pres.size

        # 3. bump the traces of the neurons that fired *this* step
        #    (after the updates: simultaneous pre/post pairs at zero
        #    time difference contribute nothing, the standard choice).
        #    A bump is the one moment a lazy trace is brought current.
        if fired_pre.size:
            self._x_val[fired_pre] = (
                self._x_val[fired_pre]
                * np.exp(
                    (self._x_last[fired_pre] - now) * (dt / self.tau_plus)
                )
                + 1.0
            )
            self._x_last[fired_pre] = now
            refreshes += fired_pre.size
        if fired_post.size:
            self._y_val[fired_post] = (
                self._y_val[fired_post]
                * np.exp(
                    (self._y_last[fired_post] - now) * (dt / self.tau_minus)
                )
                + 1.0
            )
            self._y_last[fired_post] = now
            refreshes += fired_post.size

        # 4. keep the touched weights in their representable range
        #    (after both updates, so a synapse hit by depression *and*
        #    potentiation this step is clipped once, on its net value)
        applied = 0
        for synapses in (dep_synapses, pot_synapses):
            if synapses is not None and synapses.size:
                applied += synapses.size
                weights[synapses] = np.clip(
                    weights[synapses], self.w_min, self.w_max
                )
        self.applied_updates += applied

        # 5. accounting: the dense schedule would have decayed every
        #    trace this step; whatever we did not evaluate was deferred.
        #    The dense reference mode materialises the full trace
        #    arrays (same reads as above, so identical numerics — the
        #    materialisation feeds nothing back) to pay the historical
        #    per-step cost it models.
        if self.deferred:
            self.trace_refreshes += refreshes
            if refreshes < n_dense:
                self.deferred_updates += n_dense - refreshes
        else:
            self._materialise(self._x_val, self._x_last, self.tau_plus)
            self._materialise(self._y_val, self._y_last, self.tau_minus)
            self.trace_refreshes += refreshes + n_dense

    # -- monitors ----------------------------------------------------------

    def mean_weight(self) -> float:
        """Mean synaptic weight (a learning-progress monitor)."""
        if self.projection is None:
            raise SimulationError("rule not attached to a projection")
        if self.projection.n_synapses == 0:
            return 0.0
        return float(self.projection.weights.mean())

    def publish_metrics(self, metrics) -> None:
        if self.projection is None:
            return
        labels = {"projection": self.projection.name}
        metrics.counter(
            "plasticity_deferred_updates_total",
            "Per-neuron trace updates skipped by lazy plasticity.",
            labels,
        ).set_total(self.deferred_updates)
        metrics.counter(
            "plasticity_applied_updates_total",
            "Synaptic weight updates applied at spike events.",
            labels,
        ).set_total(self.applied_updates)
        metrics.counter(
            "plasticity_trace_refreshes_total",
            "Analytic trace evaluations performed (reads and bumps).",
            labels,
        ).set_total(self.trace_refreshes)
        metrics.gauge(
            "plasticity_mean_weight",
            "Mean synaptic weight of the plastic projection.",
            labels,
        ).set(self.mean_weight())

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        if self.projection is None or self._x_val is None:
            raise CheckpointError("rule not attached to a projection")
        # Weights ride along because this rule is what mutates them;
        # static projections never change and need no capture.
        return {
            "x_val": self._x_val.copy(),
            "x_last": self._x_last.copy(),
            "y_val": self._y_val.copy(),
            "y_last": self._y_last.copy(),
            "now": self._now,
            "dt": self._dt,
            "deferred_updates": self.deferred_updates,
            "applied_updates": self.applied_updates,
            "trace_refreshes": self.trace_refreshes,
            "steps_seen": self.steps_seen,
            "weights": self.projection.weights.copy(),
        }

    def restore(self, payload: dict) -> None:
        if self.projection is None or self._x_val is None:
            raise CheckpointError("rule not attached to a projection")
        if "x_val" not in payload:
            raise CheckpointError(
                "checkpointed PairSTDP state predates the lazy-trace "
                "schema (no 'x_val'); re-capture with this version"
            )
        for name, target, dtype in (
            ("x_val", self._x_val, np.float64),
            ("x_last", self._x_last, np.int64),
            ("y_val", self._y_val, np.float64),
            ("y_last", self._y_last, np.int64),
            ("weights", self.projection.weights, np.float64),
        ):
            values = np.asarray(payload[name], dtype=dtype)
            if values.shape != target.shape:
                raise CheckpointError(
                    f"checkpointed {name} has shape {values.shape}, "
                    f"expected {target.shape}"
                )
            target[:] = values
        self._now = int(payload["now"])
        self._dt = payload["dt"]
        self.deferred_updates = int(payload.get("deferred_updates", 0))
        self.applied_updates = int(payload.get("applied_updates", 0))
        self.trace_refreshes = int(payload.get("trace_refreshes", 0))
        self.steps_seen = int(payload.get("steps_seen", 0))
