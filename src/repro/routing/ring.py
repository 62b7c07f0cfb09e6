"""The delay-bucketed spike ring: one population's in-flight spikes.

Output spikes propagate "after a certain number of time steps, or
delay, associated to each synapse" (Section II-C). A :class:`DelayRing`
holds one ``(n_synapse_types, n)`` accumulation bucket per future step;
each step the simulator consumes the current bucket as that
population's input. The ring carries weights only: the neuron phase
reads the accumulated weight and nothing else.

**Layout.** The ring is *unwrapped*: one flat float64 buffer of
``2 * depth - 1`` buckets (``depth = max_delay + 1``) with the head in
``[0, depth)``, so a write ``delay`` buckets ahead never wraps and a
synapse's cell is a fixed offset from the head — the int32 ring target
``delay * stride + post_idx`` (``stride = n_synapse_types * n``) that a
:class:`~repro.network.projection.Projection` precomputes. A rotation
only advances the head: consumed buckets (before the head) keep their
stale sums, which nothing reads. Every ``depth`` rotations the live
tail is copied back over the front and buckets ``[depth - 1, 2 * depth
- 1)`` are cleared, so buckets from ``head + depth`` on are always zero
and a bucket is zero when it enters the live window ``[head, head +
depth)``::

    depth 4, head 2:    0  1 | 2  3  4  5 | 6
                    consumed |    live    | zero

**Accumulation-order contract.** Arrivals are added one at a time
(``np.add.at`` on the flat buffer, the 1-D indexed loop) in the order
presented: within a step, projections in network order; within a
projection, fired neurons ascending; within a neuron, CSR synapse
order. Float sums — and with them every spike digest — depend on this
order and nothing else, so any replacement of the scatter must add in it
(``np.bincount`` into a slab was measured slower *and* sums otherwise).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class DelayRing:
    """Ring of per-step accumulation buckets for one population."""

    def __init__(self, n: int, n_synapse_types: int, max_delay: int):
        if max_delay < 1:
            raise SimulationError(f"max_delay must be >= 1, got {max_delay}")
        self.n = n
        self.n_synapse_types = n_synapse_types
        self.depth = max_delay + 1
        #: Cells per bucket; ring targets are ``delay * stride + post``.
        self.stride = n_synapse_types * n
        buckets = 2 * self.depth - 1
        self._flat = np.zeros(buckets * self.stride, dtype=np.float64)
        self._buckets = self._flat.reshape(buckets, n_synapse_types, n)
        self._head = 0
        #: Lifetime count of spike deliveries accumulated into the ring
        #: (telemetry; published as ``ring_events_enqueued_total``).
        self.enqueued_events = 0

    # -- enqueue -----------------------------------------------------------

    def _accumulate(self, targets, weights, syn_type: int) -> None:
        """The one scatter: add ``weights`` at head-relative ``targets``."""
        base = self._head * self.stride + syn_type * self.n
        np.add.at(self._flat[base:], targets, weights)
        self.enqueued_events += targets.size

    def enqueue(self, targets: np.ndarray, weights, syn_type: int) -> None:
        """Accumulate ``weights`` at ring ``targets`` ahead of the head.

        ``targets`` are head-relative offsets ``delay * stride +
        post_idx`` with ``1 <= delay < depth`` (checked once, when the
        router binds a projection — not per event). ``weights`` is one
        per target, or a float64 scalar added once per target.
        """
        self._accumulate(targets, weights, syn_type)

    def enqueue_now(self, post, weights, syn_type: int, events: int = 0) -> None:
        """Accumulate weights into the bucket popped at the *current* step.

        Used by stimulus generation, which injects into the present
        time step before the neuron-computation phase runs. ``post`` is
        an index array (one arrival each, added one at a time, so a
        repeated index accumulates; ``weights`` one each or a scalar) or
        a slice of neurons with one of ``weights`` each: ``events``
        arrivals, zero elsewhere, one add.
        """
        if isinstance(post, slice):
            cells = self._buckets[self._head, syn_type, post]
            np.add(cells, weights, out=cells)
            self.enqueued_events += events
        elif post.size:
            self._accumulate(post, weights, syn_type)

    # -- consume -----------------------------------------------------------

    def current(self) -> np.ndarray:
        """The ``(n_synapse_types, n)`` input accumulated for this step.

        A live (writable) view: fault injectors mutate it in place.
        """
        return self._buckets[self._head]

    def rotate(self) -> None:
        """Advance to the next step; the consumed bucket is left as is."""
        head, depth = self._head + 1, self.depth
        if head == depth:
            # Compact: the live tail moves over the consumed front, and
            # the buckets behind it (the last consumed one and the old
            # tail) are cleared for the window to enter.
            self._buckets[:depth - 1] = self._buckets[depth:]
            self._buckets[depth - 1:] = 0.0
            head = 0
        self._head = head

    # -- accounting --------------------------------------------------------

    def pending_weight(self) -> float:
        """Sum of the queued weight in the live buckets (useful for
        conservation tests)."""
        head = self._head
        return float(self._buckets[head:head + self.depth].sum())

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """The ring contents and head position (checkpointing).

        The payload is the *wrapped* ``(depth, n_synapse_types, n)``
        layout — bucket ``(head + k) % depth`` is the one consumed
        ``k`` steps from now — that checkpoints have always carried.
        """
        live = slice(self._head, self._head + self.depth)
        return {
            "ring": np.roll(self._buckets[live], self._head, axis=0),
            "head": self._head,
            "enqueued_events": self.enqueued_events,
        }

    def checked(self, snapshot: dict) -> tuple:
        """``(ring, head)`` of a payload, validated against this ring's
        geometry; the error names the offending field. The ``counts``
        and ``min_delay`` keys of older payloads are ignored."""
        if not isinstance(snapshot, dict):
            raise SimulationError(
                "ring snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        for field in ("ring", "head"):
            if field not in snapshot:
                raise SimulationError(f"ring snapshot missing field {field!r}")
        shape = (self.depth, self.n_synapse_types, self.n)
        ring = np.asarray(snapshot["ring"], dtype=np.float64)
        axes = zip(("depth", "synapse-type", "size"), ring.shape, shape)
        wrong = [axis for axis, got, want in axes if got != want]
        if ring.ndim != 3 or wrong:
            raise SimulationError(
                f"ring snapshot shape {ring.shape} does not match this "
                f"ring's {shape}" + (f": {wrong[0]} mismatch" if wrong else "")
            )
        head = int(snapshot["head"])
        if not 0 <= head < self.depth:
            raise SimulationError(
                f"snapshot head {head} out of range 0..{self.depth - 1}"
            )
        return ring, head

    def restore(self, snapshot: dict) -> None:
        """Overwrite the ring from a :meth:`snapshot`."""
        ring, head = self.checked(snapshot)
        self._flat[:] = 0.0
        self._buckets[head:head + self.depth] = np.roll(ring, -head, axis=0)
        self._head = head
        self.enqueued_events = int(snapshot.get("enqueued_events", 0))
