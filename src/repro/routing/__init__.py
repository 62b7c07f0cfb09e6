"""Delay-bucketed spike routing shared by every execution path.

One delivery mechanism serves the three-phase
:class:`~repro.network.simulator.Simulator` loop and checkpoint
capture/restore (the ring snapshot is the unit of in-flight-spike
state).

:class:`DelayRing` is the single-population ring of per-step weight
accumulation buckets; its module states the accumulation-order
contract every spike digest rests on. :class:`SpikeRouter` owns one
ring per population, sized from the network's actual incoming delays.
"""

from repro.routing.ring import DelayRing
from repro.routing.router import SpikeRouter

__all__ = ["DelayRing", "SpikeRouter"]
