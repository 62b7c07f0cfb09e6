"""SpikeRouter: every population's delay ring behind one seam.

The simulator, the checkpoint layer, the fault injectors, and the
telemetry publisher share one object with the operations they all need
— look up a ring, advance every ring one step, snapshot/restore the
lot — plus the network-shape analysis that sizes each ring from the
delays that can actually reach it and checks every projection against
the ring it scatters into.

Each ring's **depth** is the largest *incoming* delay of its population
plus one (not the network-wide maximum), so a population fed only by
short-delay projections does not carry dead buckets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable

from repro.errors import SimulationError
from repro.routing.ring import DelayRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.network import Network
    from repro.network.projection import Projection


class SpikeRouter:
    """Owns one :class:`DelayRing` per population."""

    def __init__(self, rings: Dict[str, DelayRing]):
        #: All rings, keyed by population name.
        self.rings = dict(rings)

    @classmethod
    def from_network(cls, network: "Network") -> "SpikeRouter":
        """Build per-population rings sized from actual incoming delays.

        Populations with no incoming projection still get a minimal
        ring (depth 2): stimuli inject into the current bucket and the
        neuron phase always consumes one.
        """
        max_delay: Dict[str, int] = {}
        for projection in network.projections:
            name = projection.post.name
            max_delay[name] = max(max_delay.get(name, 1), projection.max_delay)
        router = cls({
            name: DelayRing(
                population.n, population.n_synapse_types, max_delay.get(name, 1)
            )
            for name, population in network.populations.items()
        })
        router.bind(network.projections)
        return router

    def bind(self, projections: Iterable["Projection"]) -> None:
        """Check, once, that every projection's ring targets fit its ring.

        A projection encodes ``delay * stride + post_idx`` against its
        post population's geometry; the ring adds at those offsets
        without looking at them again. This is the delay-range check,
        done per projection at build time instead of per event per step.
        """
        for projection in projections:
            ring = self.ring(projection.post.name)
            stride, delay = projection.stride, projection.max_delay
            if stride != ring.stride or delay >= ring.depth:
                raise SimulationError(
                    f"projection {projection.name!r} (max delay {delay}, "
                    f"bucket stride {stride}) does not fit the ring of "
                    f"{projection.post.name!r} (delays 1..{ring.depth - 1}, "
                    f"bucket stride {ring.stride})"
                )

    # -- lookup ------------------------------------------------------------

    def ring(self, population: str) -> DelayRing:
        try:
            return self.rings[population]
        except KeyError:
            known = ", ".join(self.rings) or "<none>"
            raise SimulationError(
                f"no ring for population {population!r}; known: {known}"
            ) from None

    # -- stepping ----------------------------------------------------------

    def rotate_all(self) -> None:
        """Advance every ring one step (end of the simulation step)."""
        for ring in self.rings.values():
            ring.rotate()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        return {name: ring.snapshot() for name, ring in self.rings.items()}

    def restore(self, payload: Dict[str, dict]) -> None:
        """Restore every ring, or none: every payload is validated
        (errors name the offending population and field) before any
        ring is touched."""
        missing = sorted(set(self.rings) - set(payload))
        unexpected = sorted(set(payload) - set(self.rings))
        if missing or unexpected:
            raise SimulationError(
                "router snapshot population mismatch: "
                f"missing={missing or '[]'} unexpected={unexpected or '[]'}"
            )
        for name, ring in self.rings.items():
            try:
                ring.checked(payload[name])
            except SimulationError as error:
                raise SimulationError(
                    f"population {name!r}: {error}"
                ) from None
        for name, ring in self.rings.items():
            ring.restore(payload[name])

    # -- telemetry ---------------------------------------------------------

    def publish_metrics(self, metrics) -> None:
        """Publish per-ring routing counters (collect-time only)."""
        for name, ring in self.rings.items():
            labels = {"population": name}
            metrics.counter(
                "ring_events_enqueued_total",
                "Spike deliveries accumulated into the delay ring.",
                labels,
            ).set_total(ring.enqueued_events)
            metrics.gauge(
                "ring_pending_weight",
                "Sum of in-flight synaptic weight awaiting delivery.",
                labels,
            ).set(ring.pending_weight())
