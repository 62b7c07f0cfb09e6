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

import hashlib
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

#: Bumped when the per-shard snapshot payload layout changes.
#: 1 -> 2: the ``"rng"`` bit-generator state became ``"stimulus_seed"``.
SHARD_SNAPSHOT_VERSION = 2

#: A window payload: per owned population, one global-index array of
#: fired neurons for each step offset inside the window.
Window = Dict[str, List[np.ndarray]]


def window_digest(window: Window) -> str:
    """SHA-256 over a window payload (restart corruption check).

    A restarted shard deterministically re-produces windows the
    surviving shards already consumed; the coordinator compares the
    re-sent digest against the cached one, so silent divergence
    (corrupt checkpoint, nondeterministic backend) is detected instead
    of splitting the simulation's reality.
    """
    digest = hashlib.sha256()
    for name in sorted(window):
        digest.update(name.encode("utf-8"))
        for fired in window[name]:
            digest.update(b"|")
            digest.update(np.asarray(fired, dtype=np.int64).tobytes())
        digest.update(b";")
    return digest.hexdigest()


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
                "runtimes and cannot run a shard (snapshots would be "
                "impossible)"
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
        # shards for snapshots and replay offsets to compose.
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

    @property
    def router(self) -> SpikeRouter:
        return self._router

    @property
    def backend(self) -> RuntimeBackend:
        return self._backend

    def owned(self) -> Dict[str, Tuple[int, int]]:
        """This shard's non-empty ``{population: (lo, hi)}`` slices."""
        return dict(self._owned)

    # -- the windowed loop -------------------------------------------------

    def run_window(
        self,
        length: int,
        on_step: Optional[Callable[[int], None]] = None,
    ) -> Window:
        """Run ``length`` steps of stimulus + neuron phases locally.

        Returns the window payload: per owned population, the global
        fired indices of each step. The synapse phase is *not* run —
        it happens in :meth:`apply_exchange` once every shard's window
        is merged. ``on_step(step)`` fires after each completed step
        (shard workers hook throttled heartbeats on it so the watchdog
        sees progress inside long windows).
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
            if on_step is not None:
                on_step(self._step)
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

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> dict:
        """This shard's complete state at a barrier boundary.

        Only valid between :meth:`apply_exchange` and the next
        :meth:`run_window` — that is the point where rings, runtimes
        and recorder are mutually consistent and no fired stash is in
        flight.
        """
        return {
            "version": SHARD_SNAPSHOT_VERSION,
            "shard": self.shard,
            "step": self._step,
            "backend": self._backend.name,
            "stimulus_seed": self.stimulus_plan.seed,
            "rings": self._router.snapshot(),
            "runtimes": {
                name: runtime.snapshot()
                for name, runtime in self._backend.runtimes.items()
            },
            "spikes": self.recorder.snapshot(),
        }

    def restore(self, payload: dict) -> None:
        """Overwrite a freshly built runner from a :meth:`snapshot`."""
        version = payload.get("version")
        if version != SHARD_SNAPSHOT_VERSION:
            raise ShardingError(
                f"shard snapshot version {version!r} not supported "
                f"(expected {SHARD_SNAPSHOT_VERSION}); re-capture from a "
                "fresh run"
            )
        if payload.get("shard") != self.shard:
            raise ShardingError(
                f"snapshot belongs to shard {payload.get('shard')!r}, "
                f"this runner is shard {self.shard}"
            )
        if payload.get("backend") != self._backend.name:
            raise ShardingError(
                f"snapshot was captured on backend "
                f"{payload.get('backend')!r}, this runner uses "
                f"{self._backend.name!r}"
            )
        runtimes = self._backend.runtimes
        if set(payload["runtimes"]) != set(runtimes):
            raise ShardingError(
                "snapshot populations do not match this shard's"
            )
        self.stimulus_plan.restore(payload["stimulus_seed"])
        self._router.restore(payload["rings"])
        for name, runtime_payload in payload["runtimes"].items():
            runtimes[name].restore(runtime_payload)
        self.recorder.load(payload["spikes"])
        self._step = int(payload["step"])


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
    #: True when a simulated shard kill was recovered mid-run.
    recovered: bool = False

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
    checkpoint_every: int = 1,
    kill_shard: Optional[int] = None,
    kill_epoch: Optional[int] = None,
    on_epoch: Optional[Callable[[int, int, int], None]] = None,
) -> InlineShardResult:
    """Run the full barrier protocol with every shard in this process.

    This is the same windowed-exchange-replay cycle the process-backed
    :class:`~repro.sharding.coordinator.ShardCoordinator` drives, and
    therefore produces the same bit-identical spikes — without spawn
    cost. Supervised sweep workers use it (they are daemonic and may
    not spawn grandchildren), and the Hypothesis property suite uses it
    to sweep partition counts, seeds, and kill epochs cheaply.

    ``kill_shard`` / ``kill_epoch`` simulate a crash: at the start of
    that epoch the victim runner is discarded, rebuilt from its last
    barrier snapshot (or from scratch), and caught up by re-running its
    windows against the coordinator-side exchange cache — verifying
    each re-produced window digest against the original, exactly as
    the process coordinator does. ``on_epoch(epoch, n_epochs, step)``
    fires after each barrier (sweep workers hook heartbeats on it).
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
    exchange_cache: Dict[int, Window] = {}
    contrib_digests: Dict[int, List[str]] = {}
    snapshots: Optional[List[dict]] = None
    snapshot_epoch = -1
    recovered = False

    for epoch in range(n_epochs):
        length = plan.window_length(epoch, n_steps)
        if kill_shard is not None and epoch == kill_epoch and not recovered:
            recovered = True
            victim = ShardRunner(
                network, plan, kill_shard, factory(), dt=dt, seed=seed
            )
            if snapshots is not None:
                victim.restore(snapshots[kill_shard])
            for past in range(snapshot_epoch + 1, epoch):
                past_length = plan.window_length(past, n_steps)
                window = victim.run_window(past_length)
                if window_digest(window) != contrib_digests[past][kill_shard]:
                    raise ShardingError(
                        f"shard {kill_shard} re-produced a different "
                        f"window for epoch {past} after restart — "
                        "determinism violation"
                    )
                victim.apply_exchange(exchange_cache[past], past_length)
            runners[kill_shard] = victim
        windows = [runner.run_window(length) for runner in runners]
        merged = merge_windows(plan, windows, length)
        exchange_cache[epoch] = merged
        contrib_digests[epoch] = [window_digest(w) for w in windows]
        for runner in runners:
            runner.apply_exchange(merged, length)
        if (
            checkpoint_every
            and (epoch + 1) % checkpoint_every == 0
            and epoch + 1 < n_epochs
        ):
            snapshots = [runner.snapshot() for runner in runners]
            snapshot_epoch = epoch
            for old in [e for e in exchange_cache if e <= epoch]:
                del exchange_cache[old]
                del contrib_digests[old]
        if on_epoch is not None:
            on_epoch(epoch, n_epochs, (epoch * plan.window) + length)

    spikes = merge_spikes([runner.recorder.snapshot() for runner in runners])
    return InlineShardResult(
        spikes=spikes,
        n_steps=n_steps,
        n_shards=n_shards,
        window=plan.window,
        epochs=n_epochs,
        recovered=recovered,
    )
