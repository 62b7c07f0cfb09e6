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
Simulation with Lazy+Event-driven Plasticity"): traces are decayed and
weights updated only when a pre/post neuron actually spikes, so a
silent step costs *nothing* and plasticity work scales with spike
traffic, not with neuron or synapse count.

Events run on a :class:`~repro.network.projection.SynapseIndex` the
rule compiles at its first ``step`` (DESIGN.md, "Lazy plasticity"; 4 B
per synapse, built a row block at a time, so the first step adds only
the index and one block's scratch to the peak): fired rows are
contiguous in CSR order (depression), their targets decoded from the
ring targets; the synapses into fired neurons come back with their
sources read off the CSR row bounds, sorted into CSR order on a volley
(potentiation, a gather and scatter in memory order where order pays).
Every per-synapse index is ``intp``, and a trace is decayed once per
*neuron* whenever a step's reads outnumber the neurons. Each touched
weight ends clipped to ``[w_min, w_max]`` once; a synapse depressed
*and* potentiated in one step is clipped on its net value.
"""

from __future__ import annotations

import abc
import math
import numbers
from typing import Optional

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.network.projection import Projection, SynapseIndex, _gather


def _scatter(table: np.ndarray, rows: list, values: np.ndarray) -> None:
    """Write ``values``, gathered from ``table``'s ``rows``, back (a
    no-op when they are the one row's view)."""
    if len(rows) == 1:
        return
    start = 0
    for row in rows:
        stop = start + row.stop - row.start
        table[row] = values[start:stop]
        start = stop


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
    ):
        super().__init__()
        fields = dict(
            a_plus=a_plus, a_minus=a_minus, tau_plus=tau_plus,
            tau_minus=tau_minus, w_min=w_min, w_max=w_max,
        )
        for field, value in fields.items():
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ConfigurationError(
                    f"PairSTDP: {field} must be a finite real number, got {value!r}"
                )
            setattr(self, field, value)
        if tau_plus <= 0 or tau_minus <= 0:
            raise ConfigurationError("PairSTDP: tau_plus and tau_minus must be positive")
        if w_min > w_max:
            raise ConfigurationError("PairSTDP: w_min must not exceed w_max")
        self._x_val: Optional[np.ndarray] = None
        self._x_last: Optional[np.ndarray] = None
        self._y_val: Optional[np.ndarray] = None
        self._y_last: Optional[np.ndarray] = None
        #: Compiled at the first :meth:`step`, never at network build.
        self._index: Optional[SynapseIndex] = None
        self._now = 0
        self._dt: Optional[float] = None
        #: Per-neuron trace updates skipped relative to decaying every
        #: trace every step (``plasticity_deferred_updates_total``).
        self.deferred_updates = 0
        #: Synaptic weight updates actually applied at spike events.
        self.applied_updates = 0
        #: Analytic trace evaluations performed (reads and bumps).
        self.trace_refreshes = 0
        #: Steps this rule has processed.
        self.steps_seen = 0

    # -- attachment --------------------------------------------------------

    def attach(self, projection: Projection) -> None:
        """Bind to ``projection`` and allocate the per-neuron traces. A
        weight that *starts* outside ``[w_min, w_max]`` stays there
        until its first event clips it: untouched weights are not read.
        A constant table (one read-only weight) becomes a per-synapse
        copy here, before a step or a restore can write it."""
        super().attach(projection)
        if not projection.weights.flags.writeable:
            projection.weights = projection.weights.copy()
        self._x_val = np.zeros(projection.pre.n, dtype=np.float64)
        self._x_last = np.zeros(projection.pre.n, dtype=np.int64)
        self._y_val = np.zeros(projection.post.n, dtype=np.float64)
        self._y_last = np.zeros(projection.post.n, dtype=np.int64)

    def _require_attached(self) -> None:
        if self.projection is None or self._x_val is None:
            raise SimulationError("rule not attached to a projection")

    # -- trace views -------------------------------------------------------

    def _decayed(self, values, last, tau) -> np.ndarray:
        """``values`` as of step ``last``, decayed analytically to now."""
        return values * np.exp((last - self._now) * (self._dt / tau))

    def _materialise(self, values, last, tau) -> np.ndarray:
        """Every trace analytically decayed to the current step."""
        if self._dt is None:
            return values.copy()
        return self._decayed(values, last, tau)

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
        if self._index is None:
            self._index = SynapseIndex(self.projection)
        index = self._index
        weights = self.projection.weights
        self._now += 1
        self.steps_seen += 1
        low, high = self.w_min, self.w_max
        applied = 0

        # 1. depression: pre spikes read the post traces at this step.
        #    The fired rows are depressed in a gathered copy, or in
        #    place when one row fired (``_gather`` returns a view).
        if fired_pre.size:
            rows, posts = index.outgoing(fired_pre)
            depressed = _gather(weights, rows)
            depressed -= self._scaled_traces(
                self.a_minus, self._y_val, self._y_last, self.tau_minus, posts
            )
            if fired_post.size:  # potentiation reads the net value
                _scatter(weights, rows, depressed)
            applied += posts.size

        # 2. potentiation: post spikes read the pre traces
        if fired_post.size:
            synapses, pres = index.incoming(fired_post)
            potentiated = weights.take(synapses)
            potentiated += self._scaled_traces(
                self.a_plus, self._x_val, self._x_last, self.tau_plus, pres
            )
            applied += pres.size

        # 3. write back, each touched weight clipped once: the depressed
        #    rows first, the potentiated synapses last, so a synapse in
        #    both sets ends on its clipped net value.
        if fired_pre.size:
            depressed.clip(low, high, out=depressed)
            _scatter(weights, rows, depressed)
        if fired_post.size:
            potentiated.clip(low, high, out=potentiated)
            weights[synapses] = potentiated

        # 4. bump the traces of the neurons that fired *this* step
        #    (after the updates: simultaneous pre/post pairs at zero
        #    time difference contribute nothing, the standard choice).
        #    A bump is the one moment a lazy trace is brought current.
        if fired_pre.size:
            self._bump(self._x_val, self._x_last, self.tau_plus, fired_pre)
        if fired_post.size:
            self._bump(self._y_val, self._y_last, self.tau_minus, fired_post)

        # 5. accounting: a schedule that decays every trace every step
        #    would have done ``n_dense`` evaluations; whatever was not
        #    read or bumped was deferred.
        refreshes = applied + fired_pre.size + fired_post.size
        self.applied_updates += applied
        self.trace_refreshes += refreshes
        n_dense = self._x_val.size + self._y_val.size
        self.deferred_updates += max(n_dense - refreshes, 0)

    def _scaled_traces(self, amplitude, values, last, tau, neurons):
        """``amplitude * trace`` now, per entry of ``neurons``: evaluated
        once per neuron when the reads outnumber the neurons, once per
        read otherwise. Same bits either way — the same elementwise
        expression on a contiguous array (never on a strided view,
        whose ``exp`` loop may differ in the last bit)."""
        if neurons.size > values.size:
            return (amplitude * self._decayed(values, last, tau)).take(neurons)
        return amplitude * self._decayed(
            values.take(neurons), last.take(neurons), tau
        )

    def _bump(self, values, last, tau, fired) -> None:
        values[fired] = self._decayed(values[fired], last[fired], tau) + 1.0
        last[fired] = self._now

    # -- monitors ----------------------------------------------------------

    def mean_weight(self) -> float:
        """Mean synaptic weight (a learning-progress monitor)."""
        self._require_attached()
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
