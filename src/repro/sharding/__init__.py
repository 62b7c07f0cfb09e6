"""Sharding as a determinism oracle: one network under any partition.

The question this package answers is the one a reproduction asks of
its step loop: *are the spikes bit-identical however the populations
are cut?* :class:`ShardPlan` cuts one
:class:`~repro.network.network.Network` into contiguous per-population
slices, :class:`ShardRunner` steps one slice in min-delay windows with
the synapse phase deferred to a barrier, and :func:`simulate_sharded`
runs every slice of a plan in this process and merges the spike trains
— which must equal the single-process ``Simulator``'s, bit for bit
(property-tested over 1–6 shards and three backends).

Running the slices in separate processes was measured slower than one
process at every run length on the host this repo has and was cut
(DESIGN.md §3h holds the numbers).
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "InlineShardResult": "repro.sharding.runner",
    "ShardPlan": "repro.sharding.plan",
    "ShardRunner": "repro.sharding.runner",
    "merge_spikes": "repro.sharding.runner",
    "merge_windows": "repro.sharding.runner",
    "simulate_sharded": "repro.sharding.runner",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.sharding.plan import ShardPlan
    from repro.sharding.runner import (
        InlineShardResult,
        ShardRunner,
        merge_spikes,
        merge_windows,
        simulate_sharded,
    )


def __getattr__(name: str):
    """Lazy exports (PEP 562): keep ``import repro.sharding`` light."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
