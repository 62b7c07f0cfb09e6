"""Projections: synapse groups between populations.

A projection stores its synapses in a CSR-like layout sorted by
presynaptic neuron: ``pre_ptr[i] .. pre_ptr[i+1]`` indexes the synapses
leaving pre-neuron ``i``. Each synapse is a ``weight`` and one int32
**ring target** ``delay * (post.n_synapse_types * post.n) + post_idx``:
the offset, from the head of the post population's
:class:`~repro.routing.ring.DelayRing`, of the cell it accumulates
into. The synapse calculation phase — classify generated spikes by
target and accumulate weights (Section II-C) — is then a contiguous row
copy per fired neuron and one 1-D scatter; ``delay_counts[i, d]``
(synapses of pre-neuron ``i`` with delay ``d``) gives a fired set's
exact per-bucket event counts without touching its synapses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.population import Population


class Projection:
    """A set of synapses from ``pre`` to ``post``.

    The synapse arrays are adopted, not copied, when ``pre_idx`` arrives
    sorted (as :func:`connect` delivers it); unsorted input is stably
    re-sorted by presynaptic neuron.
    """

    def __init__(
        self,
        pre: Population,
        post: Population,
        pre_idx: np.ndarray,
        post_idx: np.ndarray,
        weights: np.ndarray,
        delays: np.ndarray,
        syn_type: int,
        name: Optional[str] = None,
    ):
        pre_idx = np.asarray(pre_idx, dtype=np.int64)
        post_idx = np.asarray(post_idx, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        delays = np.asarray(delays, dtype=np.int64)
        sizes = {pre_idx.size, post_idx.size, weights.size, delays.size}
        if len(sizes) != 1:
            raise ConfigurationError("synapse arrays must have equal length")
        if pre_idx.size and (pre_idx.min() < 0 or pre_idx.max() >= pre.n):
            raise ConfigurationError("pre index out of range")
        if post_idx.size and (post_idx.min() < 0 or post_idx.max() >= post.n):
            raise ConfigurationError("post index out of range")
        #: Delay bounds in time steps (1 when the projection is empty).
        #: ``min_delay`` is the routing layer's flush horizon: no spike
        #: through this projection arrives sooner after it was generated.
        self.min_delay = int(delays.min()) if delays.size else 1
        self.max_delay = int(delays.max()) if delays.size else 1
        if self.min_delay < 1:
            raise ConfigurationError("delays must be at least one time step")
        if not 0 <= syn_type < post.n_synapse_types:
            raise ConfigurationError(
                f"synapse type {syn_type} out of range for {post.name!r}"
            )
        self.pre = pre
        self.post = post
        self.syn_type = syn_type
        self.name = name or f"{pre.name}->{post.name}"
        self.n_synapses = int(pre_idx.size)
        #: Cells per bucket of the post ring (``targets`` are encoded in it).
        self.stride = stride = post.n_synapse_types * post.n
        depth = self.max_delay + 1
        if depth * stride >= 2**31:
            raise ConfigurationError(
                f"projection {self.name!r}: (max_delay + 1) * n_synapse_types"
                f" * n = {depth} * {post.n_synapse_types} * {post.n} of "
                f"{pre.name!r} -> {post.name!r} overflows int32 ring targets"
            )
        if np.any(pre_idx[1:] < pre_idx[:-1]):
            order = np.argsort(pre_idx, kind="stable")
            pre_idx, post_idx = pre_idx[order], post_idx[order]
            weights, delays = weights[order], delays[order]
        self.pre_ptr = np.searchsorted(pre_idx, np.arange(pre.n + 1))
        self.targets = (delays * stride + post_idx).astype(np.int32)
        self.weights = weights
        self.delay_counts = np.bincount(
            pre_idx * depth + delays, minlength=pre.n * depth
        ).reshape(pre.n, depth)

    @property
    def post_idx(self) -> np.ndarray:
        """Target neuron of every synapse, decoded from ``targets``.

        O(n_synapses) per access: for build-time users (shard slicing).
        A plastic projection's per-step code reads :class:`SynapseIndex`.
        """
        return (self.targets % self.post.n).astype(np.int64)

    @property
    def delays(self) -> np.ndarray:
        """Delay of every synapse in steps, decoded (O(n_synapses))."""
        return (self.targets // self.stride).astype(np.int64)

    def synapses_of(self, fired_pre: np.ndarray):
        """Gather the synapses of the given fired presynaptic neurons.

        Returns ``(targets, weights, counts)``: the fired rows' ring
        targets and weights, concatenated in ``fired_pre`` order, and
        the per-delay event histogram :meth:`DelayRing.enqueue` adds to
        its count ring.
        """
        rows = _rows(self.pre_ptr, fired_pre)
        return (
            np.concatenate([self.targets[row] for row in rows]),
            np.concatenate([self.weights[row] for row in rows]),
            self.delay_counts[fired_pre].sum(axis=0),
        )

    def pre_of_synapses(self, dtype=np.int64) -> np.ndarray:
        """Presynaptic neuron of every synapse (CSR row expansion;
        O(n_synapses) per call, for build-time users)."""
        return np.repeat(np.arange(self.pre.n, dtype=dtype), np.diff(self.pre_ptr))

    def __repr__(self) -> str:
        return (
            f"Projection({self.name!r}, synapses={self.n_synapses}, "
            f"type={self.syn_type})"
        )


def _rows(ptr: np.ndarray, groups: np.ndarray) -> list:
    """The ``ptr``-delimited rows of ``groups``, as slices."""
    # The leading empty row keeps concatenate defined when nothing fired.
    return [slice(0, 0)] + [
        slice(lo, hi)
        for lo, hi in zip(ptr[groups].tolist(), ptr[groups + 1].tolist())
    ]


#: Post populations up to this size sort on uint16 keys (numpy's 16-bit
#: stable sort is a radix sort), ``SORT_BLOCK`` synapses at a time: a
#: 2 MiB sort result and scratch reuse freed heap, per-synapse-sized
#: ones raised the process's peak RSS.
RADIX_KEY_LIMIT = 1 << 16
SORT_BLOCK = 1 << 18


class SynapseIndex:
    """What a plasticity rule reads per step, compiled at its first one.

    ``post[s]`` is the target of CSR synapse ``s``; the synapses *into*
    neuron ``j`` fill slots ``post_ptr[j] .. post_ptr[j + 1]`` in CSR
    order, ``order[slot]`` the synapse and ``pre[slot]`` its source.
    ``order`` and ``pre`` are int32 and ``post`` is its own sort key
    (uint16 up to ``RADIX_KEY_LIMIT`` neurons, int32 above): 10-12 B per
    synapse; the build must stay under the network build's memory peak.
    """

    def __init__(self, projection: Projection):
        n_post = projection.post.n
        if projection.n_synapses >= 2**31:
            raise ConfigurationError(
                f"projection {projection.name!r} overflows int32 synapse indices"
            )
        self.pre_ptr = projection.pre_ptr
        post = np.remainder(projection.targets, np.int32(n_post))
        self.post_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(post, minlength=n_post)))
        )
        if n_post <= RADIX_KEY_LIMIT:
            post = post.astype(np.uint16)  # rebinding frees the int32 decode
        self.post = post
        pre_of = projection.pre_of_synapses(np.int32)
        self.order = np.empty(post.size, dtype=np.int32)
        self.pre = np.empty(post.size, dtype=np.int32)
        # Stable sort by target, a block of CSR order at a time: a block's
        # synapses go behind the earlier blocks' in their neuron's slots.
        filled = self.post_ptr[:-1].copy()
        for lo in range(0, post.size, SORT_BLOCK):
            perm = np.argsort(post[lo:lo + SORT_BLOCK], kind="stable")
            keys = post[lo:lo + SORT_BLOCK].take(perm)
            counts = np.bincount(keys, minlength=n_post)
            ends = np.cumsum(counts)
            # filled[j] + (rank in the sorted block - first rank of key j)
            slots = (filled - (ends - counts)).take(keys) + np.arange(keys.size)
            perm += lo
            self.order[slots] = perm
            self.pre[slots] = pre_of.take(perm)
            filled += counts

    def outgoing(self, fired_pre: np.ndarray):
        """``(rows, post)``: the fired CSR rows as slices, their targets."""
        rows = _rows(self.pre_ptr, fired_pre)
        return rows, np.concatenate(
            [self.post[row] for row in rows], dtype=np.intp
        )

    def incoming(self, fired_post: np.ndarray):
        """``(synapses, pre)`` of the synapses into the fired neurons."""
        rows = _rows(self.post_ptr, fired_post)
        return (
            np.concatenate([self.order[row] for row in rows], dtype=np.intp),
            np.concatenate([self.pre[row] for row in rows], dtype=np.intp),
        )


def connect(
    pre: Population,
    post: Population,
    probability: float = 1.0,
    weight: float = 0.1,
    weight_std: float = 0.0,
    delay_steps: int = 1,
    delay_jitter: int = 0,
    syn_type: int = 0,
    allow_self: bool = False,
    rng: Optional[np.random.Generator] = None,
    name: Optional[str] = None,
) -> Projection:
    """Random fixed-probability connectivity (the PyNN workhorse).

    Each (pre, post) pair is connected independently with the given
    probability; weights are drawn from a normal distribution around
    ``weight`` (clipped to keep the sign) and delays uniformly from
    ``delay_steps .. delay_steps + delay_jitter``.
    """
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(f"probability must be in [0, 1], got {probability}")
    for field, value in (("delay_steps", delay_steps), ("delay_jitter", delay_jitter)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(
                f"connect({pre.name!r} -> {post.name!r}): {field} must be "
                f"an integer, got {value!r}"
            )
    if delay_steps < 1:
        raise ConfigurationError(
            f"connect({pre.name!r} -> {post.name!r}): delay_steps must be "
            f">= 1, got {delay_steps}"
        )
    if delay_jitter < 0:
        raise ConfigurationError(
            f"connect({pre.name!r} -> {post.name!r}): delay_jitter must be "
            f">= 0, got {delay_jitter}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    if probability >= 1.0:
        pre_idx, post_idx = np.meshgrid(
            np.arange(pre.n), np.arange(post.n), indexing="ij"
        )
        pre_idx = pre_idx.ravel()
        post_idx = post_idx.ravel()
    elif pre.n * post.n <= 4_000_000:
        hits = np.flatnonzero(rng.random((pre.n, post.n)) < probability)
        pre_idx, post_idx = np.divmod(hits, post.n)
    else:
        # Large pair counts: draw each pre-neuron's out-degree
        # binomially and sample targets with replacement. Statistically
        # this allows the occasional duplicate synapse (two synapses
        # between the same pair), which biological networks also have;
        # memory stays proportional to the synapse count instead of
        # the pair count.
        counts = rng.binomial(post.n, probability, size=pre.n)
        pre_idx = np.repeat(np.arange(pre.n), counts)
        post_idx = rng.integers(0, post.n, size=int(counts.sum()))
    if pre is post and not allow_self:
        keep = pre_idx != post_idx
        pre_idx, post_idx = pre_idx[keep], post_idx[keep]
    n_syn = pre_idx.size
    if weight_std > 0.0:
        weights = rng.normal(weight, weight_std, size=n_syn)
        if weight >= 0:
            np.clip(weights, 0.0, None, out=weights)
        else:
            np.clip(weights, None, 0.0, out=weights)
    else:
        weights = np.full(n_syn, weight, dtype=np.float64)
    if delay_jitter > 0:
        delays = rng.integers(
            delay_steps, delay_steps + delay_jitter + 1, size=n_syn
        )
    else:
        delays = np.full(n_syn, delay_steps, dtype=np.int64)
    return Projection(
        pre, post, pre_idx, post_idx, weights, delays, syn_type, name=name
    )
