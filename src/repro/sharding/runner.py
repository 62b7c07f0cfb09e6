"""ShardRunner: one shard's slice of the network, stepped in windows.

A runner owns a contiguous slice of every population (see
:class:`~repro.sharding.plan.ShardPlan`) and executes the simulator's
three-phase loop in *windows* of ``plan.window`` steps, with the
synapse phase deferred to the window barrier:

1. **Window** (:meth:`ShardRunner.run_window`): for each step, run the
   stimulus phase (a :class:`~repro.network.stimulus.StimulusPlan`
   restricted to the owned slices: streams are addressed by ``(step,
   target)``, so a shard draws only its own columns and still sees
   the single-process values) and the neuron phase
   (advance the slice runtimes, record fired indices *globally*).
   No synaptic traffic is enqueued — within a window none of it can
   arrive anyway, because every delay is >= the window (the min-delay
   contract behind :meth:`DelayRing.flush_window`).

2. **Exchange**: the shard ships its per-step fired-index lists — the
   exact spike set whose deliveries would populate the finalised
   ``flush_events`` buckets — and receives the merged lists of every
   shard.

3. **Replay** (:meth:`ShardRunner.apply_exchange`): the merged window
   is replayed through the shard's sub-projections in the canonical
   single-process order — step-major, then global projection order —
   depositing each arrival at ring offset ``delay - (length - o)``.
   Because a sliced projection's flat synapse order is a subsequence
   of the full projection's, every per-element float accumulation
   happens in exactly the single-process order: the sums, the membrane
   trajectories, and therefore the spikes are bit-identical.

Exchanging fired *indices* instead of accumulated float windows is the
load-bearing choice: summing per-shard float windows at the merge
point would impose a cross-shard addition order the single-process
path never performs, and ULPs would drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShardingError
from repro.network.backends import ReferenceBackend, RuntimeBackend
from repro.network.network import Network
from repro.network.population import Population
from repro.network.projection import Projection
from repro.network.recorder import SpikeRecorder
from repro.network.simulator import advance_blocks, bind_blocks
from repro.network.stimulus import StimulusPlan
from repro.routing import SpikeRouter
from repro.sharding.plan import ShardPlan

#: A window payload: per owned population, one global-index array of
#: fired neurons for each step offset inside the window.
Window = Dict[str, List[np.ndarray]]


class ShardRunner:
    """Executes one shard's population slices window by window."""

    def __init__(
        self,
        network: Network,
        plan: ShardPlan,
        shard: int,
        backend: Optional[RuntimeBackend] = None,
        dt: float = 1e-4,
        seed: int = 0,
    ):
        backend = backend if backend is not None else ReferenceBackend()
        if not isinstance(backend, RuntimeBackend):
            raise ConfigurationError(
                f"backend {backend.name!r} does not expose population "
                "runtimes and cannot run a shard"
            )
        self.plan = plan
        self.shard = shard
        self.dt = dt
        self._owned = plan.owned(shard)
        self._backend = backend
        self.recorder = SpikeRecorder()
        self._step = 0

        # The local view: slice-sized populations, assembled directly
        # (builder validation would reject slice projections whose pre
        # endpoint is the *full* population — which is exactly what we
        # want: global pre indices, sliced post).
        local = Network(network.name)
        for name, (lo, hi) in self._owned.items():
            model = network.populations[name].model
            local.populations[name] = Population(name, hi - lo, model)

        replay: List[Tuple[str, Projection, str]] = []
        for projection in network.projections:
            post_name = projection.post.name
            if post_name not in self._owned:
                continue
            # The slice keeps the projection's flat synapse order —
            # accumulation order is pinned — with ring targets encoded
            # against the slice-sized local population.
            sub = projection.restricted_to(
                local.populations[post_name],
                self._owned[post_name][0],
                name=f"{projection.name}[shard{shard}]",
            )
            if not sub.n_synapses:
                continue
            local.projections.append(sub)
            replay.append((projection.pre.name, sub, post_name))

        self.network = local
        backend.prepare(local)

        # Rings are sized from the FULL network's delay bounds: the
        # synapses that happen to land on this slice could have a
        # narrower delay range, and ring geometry must agree across
        # shards for replay offsets to compose.
        self._router = SpikeRouter.from_network(
            local, bounds=SpikeRouter.delay_bounds(network)
        )
        rings = self._router.rings
        for name, runtime in backend.runtimes.items():
            runtime.bind_ring(self._router.ring(name))

        # Per-step work lists, resolved once (simulator discipline).
        self.stimulus_plan = StimulusPlan(
            network.stimuli, rings, seed, owned=self._owned
        )
        self._populations = [(name, self._owned[name][0]) for name in self._owned]
        # The neuron phase is the simulator's, over the blocks the
        # backend compiled for the slice-sized local network.
        self._blocks = bind_blocks(backend, rings)
        self._replay = [
            (pre_name, sub, rings[post_name], sub.syn_type)
            for pre_name, sub, post_name in replay
        ]

    # -- properties --------------------------------------------------------

    @property
    def step(self) -> int:
        """Global steps simulated so far."""
        return self._step

    def owned(self) -> Dict[str, Tuple[int, int]]:
        """This shard's non-empty ``{population: (lo, hi)}`` slices."""
        return dict(self._owned)

    # -- the windowed loop -------------------------------------------------

    def run_window(self, length: int) -> Window:
        """Run ``length`` steps of stimulus + neuron phases locally.

        Returns the window payload: per owned population, the global
        fired indices of each step. The synapse phase is *not* run —
        it happens in :meth:`apply_exchange` once every shard's window
        is merged.
        """
        if length < 1:
            raise ShardingError(f"window length must be >= 1, got {length}")
        fired: Window = {name: [] for name, _ in self._populations}
        inject_stimuli = self.stimulus_plan.inject
        dt = self.dt
        advance = self._backend.advance
        local: Dict[str, np.ndarray] = {}
        for _ in range(length):
            step = self._step
            inject_stimuli(step)
            advance_blocks(advance, self._blocks, dt, local)
            # Fired indices leave the shard global, in population order.
            for name, lo in self._populations:
                idx = local[name] + lo
                self.recorder.record_indices(name, step, idx)
                fired[name].append(idx)
            self._router.rotate_all()
            self._step += 1
        return fired

    def apply_exchange(self, merged: Window, length: int) -> None:
        """Replay a merged window through this shard's sub-projections.

        Canonical order — step offset major, then global projection
        order — with each arrival deposited ``delay - (length - o)``
        buckets ahead of the (already rotated) ring head, in the ring's
        accumulation-order contract. Every delay is >= ``length`` (<=
        the plan window), so offsets are >= 0; an offset-0 deposit is a
        spike arriving at the very next step.
        """
        for name, per_step in merged.items():
            if len(per_step) != length:
                raise ShardingError(
                    f"exchange for {name!r} has {len(per_step)} steps, "
                    f"expected {length}"
                )
        for offset in range(length):
            shift = length - offset
            for pre_name, sub, ring, syn_type in self._replay:
                per_step = merged.get(pre_name)
                if per_step is None:
                    raise ShardingError(
                        f"exchange is missing population {pre_name!r} "
                        f"needed by shard {self.shard}"
                    )
                pre_fired = np.asarray(per_step[offset], dtype=np.int64)
                if pre_fired.size == 0:
                    continue
                targets, weights, counts = sub.synapses_of(pre_fired)
                ring.deposit(targets, weights, counts, syn_type, shift)


# -- merging ---------------------------------------------------------------


def merge_windows(
    plan: ShardPlan, windows: Sequence[Window], length: int
) -> Window:
    """Merge per-shard windows into full-population fired lists.

    ``windows`` must be in shard order: each shard's slice is a
    contiguous ascending run of global indices, so concatenation in
    shard order reproduces exactly the ascending fired list
    ``np.nonzero`` yields single-process.
    """
    empty = np.empty(0, dtype=np.int64)
    merged: Window = {}
    for name in plan.population_order:
        per_step: List[np.ndarray] = []
        for offset in range(length):
            parts = [
                window[name][offset]
                for window in windows
                if name in window
            ]
            per_step.append(np.concatenate(parts) if parts else empty)
        merged[name] = per_step
    return merged


def merge_spikes(snapshots: Sequence[Dict[str, tuple]]) -> SpikeRecorder:
    """Compose per-shard recorder snapshots into one global recorder.

    Sorting by ``(step, neuron)`` reproduces the single-process
    recorder's layout exactly: it appends per step in ascending step
    order, and within a step ``np.nonzero`` emits ascending neuron
    indices. No (step, neuron) pair can repeat, so the sort is a
    bijection and the digest matches bit for bit.
    """
    recorder = SpikeRecorder()
    names = sorted({name for snap in snapshots for name in snap})
    merged = {}
    for name in names:
        steps = np.concatenate(
            [
                np.asarray(snap[name][0], dtype=np.int64)
                for snap in snapshots
                if name in snap
            ]
        )
        neurons = np.concatenate(
            [
                np.asarray(snap[name][1], dtype=np.int64)
                for snap in snapshots
                if name in snap
            ]
        )
        order = np.lexsort((neurons, steps))
        merged[name] = (steps[order], neurons[order])
    recorder.load(merged)
    return recorder


# -- in-process sharded execution ------------------------------------------


@dataclass
class InlineShardResult:
    """What an in-process sharded run produced."""

    spikes: SpikeRecorder
    n_steps: int
    n_shards: int
    window: int
    epochs: int

    def total_spikes(self) -> int:
        return self.spikes.total_spikes()

    def digest(self) -> str:
        return self.spikes.digest()


def simulate_sharded(
    network: Network,
    n_shards: int,
    n_steps: int,
    backend_factory: Optional[Callable[[], RuntimeBackend]] = None,
    dt: float = 1e-4,
    seed: int = 0,
    plan: Optional[ShardPlan] = None,
) -> InlineShardResult:
    """Step ``network`` as ``n_shards`` slices in this process.

    Every epoch each runner steps its window, the fired-index lists are
    merged in shard order and every runner replays the merged window
    through its sub-projections. The merged spike trains must equal the
    single-process ``Simulator``'s bit for bit under any partition —
    the property ``tests/properties/test_sharding_properties.py`` and
    ``tests/integration/test_run_assembly.py`` hold the step loop to.
    """
    factory = backend_factory or ReferenceBackend
    plan = plan if plan is not None else ShardPlan(network, n_shards)
    if plan.n_shards != n_shards:
        raise ConfigurationError(
            f"plan is cut for {plan.n_shards} shards, asked for {n_shards}"
        )
    runners = [
        ShardRunner(network, plan, shard, factory(), dt=dt, seed=seed)
        for shard in range(n_shards)
    ]
    n_epochs = plan.epochs_for(n_steps)
    for epoch in range(n_epochs):
        length = plan.window_length(epoch, n_steps)
        windows = [runner.run_window(length) for runner in runners]
        merged = merge_windows(plan, windows, length)
        for runner in runners:
            runner.apply_exchange(merged, length)

    spikes = merge_spikes([runner.recorder.snapshot() for runner in runners])
    return InlineShardResult(
        spikes=spikes,
        n_steps=n_steps,
        n_shards=n_shards,
        window=plan.window,
        epochs=n_epochs,
    )
