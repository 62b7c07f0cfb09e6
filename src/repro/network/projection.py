"""Projections: synapse groups between populations.

A projection stores its synapses in a CSR-like layout sorted by
presynaptic neuron: ``pre_ptr[i] .. pre_ptr[i+1]`` indexes the synapses
leaving pre-neuron ``i``. Each synapse is a ``weight`` and one int32
**ring target** ``delay * (post.n_synapse_types * post.n) + post_idx``:
the offset, from the head of the post population's
:class:`~repro.routing.ring.DelayRing`, of the cell it accumulates
into. The synapse calculation phase — classify generated spikes by
target and accumulate weights (Section II-C) — is then one row gather
and one 1-D scatter per projection. The gather's fixed cost is one
``take`` pair and one slice per fired row; a single fired row is
returned as a view, with no copy.

A **constant table** stores its weight once: ``weights`` is a read-only
zero-stride view of one float64 (what :func:`connect` builds at
``weight_std=0``), 4 B/synapse resident instead of 12, and the gather
returns ring targets and that weight as a scalar, which the scatter
adds once per arrival.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.population import Population


#: Synapses per block of the build. Rows are encoded, self-connections
#: dropped, index draws narrowed and a :class:`SynapseIndex` decoded and
#: sorted a block at a time over scratch that stays in cache; a buffer
#: size, in no digest.
BUILD_BLOCK = 1 << 17
#: Pair counts up to this draw every pair; above it ``connect`` samples
#: out-degrees and targets.
DENSE_PAIR_LIMIT = 4_000_000


def _row_blocks(pre_ptr: np.ndarray):
    """Cut a CSR table into runs of whole rows holding at most
    ``BUILD_BLOCK`` synapses (a longer row is a block of its own).

    Yields ``(first, last, synapses)``: the block's rows and its
    synapse slice.
    """
    n_rows, first = pre_ptr.size - 1, 0
    while first < n_rows:
        last = n_rows
        if pre_ptr[last] - pre_ptr[first] > BUILD_BLOCK:  # more than one left
            reach = pre_ptr[first] + BUILD_BLOCK
            last = int(np.searchsorted(pre_ptr, reach, side="right")) - 1
            last = max(last, first + 1)
        yield first, last, slice(int(pre_ptr[first]), int(pre_ptr[last]))
        first = last


def _integers(name: str, field: str, values) -> np.ndarray:
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ConfigurationError(
            f"projection {name!r}: {field} must be integers, not {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


class Projection:
    """A set of synapses from ``pre`` to ``post``, given as COO arrays.

    ``weights`` is adopted, not copied, when ``pre_idx`` arrives sorted;
    unsorted input is stably re-sorted by presynaptic neuron. Either way
    the table is encoded by :meth:`from_rows`, as :func:`connect`'s is.
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
        label = name or f"{pre.name}->{post.name}"
        pre_idx = _integers(label, "pre_idx", pre_idx)
        post_idx = _integers(label, "post_idx", post_idx)
        delays = _integers(label, "delays", delays)
        weights = np.asarray(weights, dtype=np.float64)
        sizes = {pre_idx.size, post_idx.size, weights.size, delays.size}
        if len(sizes) != 1:
            raise ConfigurationError("synapse arrays must have equal length")
        if pre_idx.size and (pre_idx.min() < 0 or pre_idx.max() >= pre.n):
            raise ConfigurationError("pre index out of range")
        if post_idx.size and (post_idx.min() < 0 or post_idx.max() >= post.n):
            raise ConfigurationError("post index out of range")
        if not np.isfinite(weights).all():
            raise ConfigurationError(f"projection {label!r}: weights must be finite")
        if np.any(pre_idx[1:] < pre_idx[:-1]):
            order = np.argsort(pre_idx, kind="stable")
            post_idx, weights, delays = post_idx[order], weights[order], delays[order]
        counts = np.bincount(pre_idx, minlength=pre.n)
        post_idx = post_idx.astype(np.int32)
        self._encode(pre, post, counts, post_idx, weights, delays, syn_type, label)

    @classmethod
    def from_rows(
        cls, pre: Population, post: Population, counts: np.ndarray,
        post_idx: np.ndarray, weights: np.ndarray, delays: np.ndarray,
        syn_type: int, name: Optional[str] = None,
    ) -> "Projection":
        """A projection from synapses already in CSR order, ``counts[i]``
        of them leaving pre-neuron ``i``.

        The arrays are adopted: int32 ``post_idx`` (in range) is
        overwritten with the ring targets, float64 ``weights`` becomes
        the weight table (a zero-stride broadcast: a constant table);
        ``delays`` is read once, a block at a time (any integer dtype,
        or a broadcast scalar).
        """
        self = cls.__new__(cls)
        self._encode(pre, post, counts, post_idx, weights, delays, syn_type, name)
        return self

    def _encode(self, pre, post, counts, targets, weights, delays, syn_type, name):
        self.pre = pre
        self.post = post
        self.syn_type = syn_type
        self.name = name or f"{pre.name}->{post.name}"
        self.n_synapses = int(targets.size)
        self.pre_ptr = np.zeros(pre.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.pre_ptr[1:])
        if not self.pre_ptr[-1] == targets.size == weights.size == delays.size:
            raise ConfigurationError("synapse arrays must have equal length")
        #: Delay bounds in time steps (1 when the projection is empty);
        #: the router sizes the post population's ring from ``max_delay``.
        self.min_delay = int(delays.min()) if delays.size else 1
        self.max_delay = int(delays.max()) if delays.size else 1
        if self.min_delay < 1:
            raise ConfigurationError("delays must be at least one time step")
        if not 0 <= syn_type < post.n_synapse_types:
            raise ConfigurationError(
                f"synapse type {syn_type} out of range for {post.name!r}"
            )
        #: Cells per bucket of the post ring (``targets`` are encoded in it).
        self.stride = stride = post.n_synapse_types * post.n
        depth = self.max_delay + 1
        if depth * stride >= 2**31:
            raise ConfigurationError(
                f"projection {self.name!r}: (max_delay + 1) * n_synapse_types"
                f" * n = {depth} * {post.n_synapse_types} * {post.n} of "
                f"{pre.name!r} -> {post.name!r} overflows int32 ring targets"
            )
        self.targets = targets
        self.weights = weights
        for _, _, synapses in _row_blocks(self.pre_ptr):
            delay = delays[synapses].astype(np.int64)
            delay *= stride
            delay += targets[synapses]
            targets[synapses] = delay

    @property
    def post_idx(self) -> np.ndarray:
        """Target neuron of every synapse, decoded from ``targets``
        (O(n_synapses) per access, for tests and measurement; a plastic
        projection's step decodes only its fired rows, through
        :meth:`SynapseIndex.outgoing`)."""
        return (self.targets % self.post.n).astype(np.int64)

    @property
    def delays(self) -> np.ndarray:
        """Delay of every synapse in steps, decoded (O(n_synapses))."""
        return (self.targets // self.stride).astype(np.int64)

    def synapses_of(self, fired_pre: np.ndarray):
        """Gather the synapses of the given fired presynaptic neurons.

        Returns ``(targets, weights)``: the fired rows' ring targets and
        weights, concatenated in ``fired_pre`` order. When one row fired
        they are views of that row, and may alias the table: callers
        only read them. A constant table's weights are its one weight,
        a float64 scalar: only the targets are gathered. With nothing
        fired both are zero-length arrays.
        """
        rows = _rows(self.pre_ptr, fired_pre)
        targets = _gather(self.targets, rows)
        weights = self.weights
        if weights.strides[0] == 0 and targets.size:
            return targets, weights[0]
        return targets, _gather(weights, rows)

    def pre_of_synapses(self) -> np.ndarray:
        """Presynaptic neuron of every synapse (CSR row expansion;
        O(n_synapses) per call, for tests and measurement)."""
        return np.repeat(np.arange(self.pre.n, dtype=np.int64), np.diff(self.pre_ptr))

    def __repr__(self) -> str:
        return (
            f"Projection({self.name!r}, synapses={self.n_synapses}, "
            f"type={self.syn_type})"
        )


def _rows(ptr: np.ndarray, groups: np.ndarray) -> list:
    """The ``ptr``-delimited rows of ``groups``, as slices."""
    return list(map(slice, ptr.take(groups).tolist(), ptr[1:].take(groups).tolist()))


def _gather(table: np.ndarray, rows: list) -> np.ndarray:
    """``table``'s ``rows`` end to end: a view of the row when there is
    one, a zero-length view when there is none."""
    if len(rows) == 1:
        return table[rows[0]]
    return np.concatenate([table[row] for row in rows]) if rows else table[:0]


#: Populations up to this size sort their synapses by uint16 neuron
#: numbers (numpy's 16-bit stable sort is a radix sort); larger ones by
#: int32.
RADIX_KEY_LIMIT = 1 << 16


def _neurons(targets: np.ndarray, n: int) -> np.ndarray:
    """``targets % n`` as a new int32 array: the target neurons of ring
    targets (their ring stride is a multiple of ``n``). Floor division
    by a scalar runs as a multiply, ``%`` as a hardware divide, so on
    large arrays this is about 2.5x faster than ``%``."""
    neurons = targets // n
    neurons *= -n
    neurons += targets
    return neurons


#: A row lookup holds at most this many buckets per presynaptic neuron.
ROW_LOOKUP_BUCKETS = 4

#: ``SynapseIndex.incoming`` sorts its reads into CSR order when they
#: hold more than one synapse in this many: sparser reads touch a cache
#: line each in any order, so a sort only adds its own cost. Measured on
#: ``brunel-stdp`` (1.6 M synapses), sorting makes a plastic step 1.03-
#: 1.09x slower at 4-80 k reads, breaks even at 80-100 k and saves
#: 10-14 % above 100 k.
SORT_SPACING = 16


def _row_lookup(pre_ptr: np.ndarray):
    """``(first_row, shift)``: the row that holds synapse ``b << shift``,
    for every bucket ``b`` of ``1 << shift`` synapses.

    No row is shorter than a bucket, so the ends of two rows are at
    least a bucket apart and synapse ``s``'s row is ``first_row[s >>
    shift]`` or the one after it. ``(None, 0)`` when a row is empty or
    the buckets would outnumber the rows ``ROW_LOOKUP_BUCKETS`` times.
    """
    lengths = np.diff(pre_ptr)
    shortest = int(lengths.min()) if lengths.size else 0
    if shortest == 0:
        return None, 0
    shift = shortest.bit_length() - 1
    n_synapses = int(pre_ptr[-1])
    if n_synapses >> shift > ROW_LOOKUP_BUCKETS * lengths.size:
        return None, 0
    starts = np.arange(0, n_synapses, 1 << shift)
    return pre_ptr[1:].searchsorted(starts, side="right"), shift


class SynapseIndex:
    """What a plasticity rule reads per step, compiled at its first one.

    The synapses *into* neuron ``j`` fill slots ``post_ptr[j] ..
    post_ptr[j + 1]`` in CSR order, ``order[slot]`` the synapse (int32):
    4 B per synapse at rest, plus O(neurons). Nothing the projection
    already holds is copied: a synapse's target is ``targets[s] %
    n_post`` and its source the CSR row that holds it, found through
    ``first_row`` (:func:`_row_lookup`) when every row is at least a
    bucket long. The build walks the table twice, a ``_row_blocks``
    block at a time (count, then sort), decoding each block's keys from
    ``targets``, so it holds no per-synapse temporary: its peak is the
    index plus one block's scratch.
    """

    def __init__(self, projection: Projection):
        n_post = projection.post.n
        n_synapses = projection.n_synapses
        if n_synapses >= 2**31:
            raise ConfigurationError(
                f"projection {projection.name!r} overflows int32 synapse indices"
            )
        self.pre_ptr = projection.pre_ptr
        self.targets = projection.targets
        self.n_post = n_post
        self.order = np.empty(n_synapses, dtype=np.int32)
        key_dtype = np.uint16 if n_post <= RADIX_KEY_LIMIT else np.int32
        counts = np.zeros(n_post, dtype=np.int64)
        for _, _, synapses in _row_blocks(self.pre_ptr):
            counts += np.bincount(self._keys(synapses, key_dtype), minlength=n_post)
        self.post_ptr = np.concatenate(([0], np.cumsum(counts)))
        # Stable sort by target, a block of CSR order at a time: a block's
        # synapses go behind the earlier blocks' in their neuron's slots.
        filled = self.post_ptr[:-1].copy()
        for _, _, synapses in _row_blocks(self.pre_ptr):
            keys = self._keys(synapses, key_dtype)
            perm = np.argsort(keys, kind="stable")
            keys = keys.take(perm)
            counts = np.bincount(keys, minlength=n_post)
            ends = np.cumsum(counts)
            # filled[j] + (rank in the sorted block - first rank of key j)
            slots = (filled - (ends - counts)).take(keys)
            slots += np.arange(keys.size)
            perm += synapses.start
            self.order[slots] = perm
            filled += counts
        self.first_row, self.shift = _row_lookup(self.pre_ptr)

    def _keys(self, synapses: slice, dtype) -> np.ndarray:
        """A block's targets as neuron numbers of ``dtype`` (the sort
        keys: numpy's 16-bit stable sort is a radix sort)."""
        return _neurons(self.targets[synapses], self.n_post).astype(dtype, copy=False)

    def outgoing(self, fired_pre: np.ndarray):
        """``(rows, post)``: the fired CSR rows as slices, in
        ``fired_pre`` order, and their targets decoded to ``intp``."""
        rows = _rows(self.pre_ptr, fired_pre)
        posts = _neurons(_gather(self.targets, rows), self.n_post)
        return rows, posts.astype(np.intp)

    def incoming(self, fired_post: np.ndarray):
        """``(synapses, pre)`` of the synapses into the fired neurons,
        both ``intp``: by fired neuron, each one's synapses ascending,
        and sorted into CSR order on a volley (reads denser than one per
        ``SORT_SPACING`` synapses, whose weight gather and store then
        run in memory order). A source is the row whose bounds hold
        its synapse: ``first_row`` and one comparison with a row end
        when the table has a row lookup, one ``searchsorted`` per read
        otherwise."""
        rows = _rows(self.post_ptr, fired_post)
        synapses = _gather(self.order, rows)
        ends = self.pre_ptr[1:]
        if len(rows) > 1 and synapses.size * SORT_SPACING > self.order.size:
            synapses.sort()  # in place: a concatenated copy
        synapses = synapses.astype(np.intp)
        if self.first_row is not None:
            pres = self.first_row.take(synapses >> self.shift)
            pres += ends.take(pres) <= synapses  # past the one end in reach
        else:
            pres = ends.searchsorted(synapses, side="right")
        return synapses, pres


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
    ``weight`` (clipped to keep the sign), or are ``weight`` itself, a
    constant table, at ``weight_std=0``; delays uniformly from
    ``delay_steps .. delay_steps + delay_jitter``.
    """
    where = f"connect({pre.name!r} -> {post.name!r})"
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(f"probability must be in [0, 1], got {probability}")
    for field, value in (("delay_steps", delay_steps), ("delay_jitter", delay_jitter)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(
                f"{where}: {field} must be an integer, got {value!r}"
            )
    if delay_steps < 1:
        raise ConfigurationError(f"{where}: delay_steps must be >= 1, got {delay_steps}")
    if delay_jitter < 0:
        raise ConfigurationError(
            f"{where}: delay_jitter must be >= 0, got {delay_jitter}"
        )
    if not np.isfinite(weight):
        raise ConfigurationError(f"{where}: weight must be finite, got {weight}")
    if not 0.0 <= weight_std < np.inf:
        raise ConfigurationError(
            f"{where}: weight_std must be finite and >= 0, got {weight_std}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    # Every call on ``rng`` below (order, size, dtype) is part of every
    # digest; ``BUILD_BLOCK`` only cuts a call into chunks, which draw
    # the same stream.
    no_self = pre is post and not allow_self
    if probability < 1.0 and pre.n * post.n > DENSE_PAIR_LIMIT:
        # Large pair counts: draw each pre-neuron's out-degree
        # binomially and sample targets with replacement. Statistically
        # this allows the occasional duplicate synapse (two synapses
        # between the same pair), which biological networks also have;
        # memory stays proportional to the synapse count instead of
        # the pair count.
        counts = rng.binomial(post.n, probability, size=pre.n)
        post_idx = _draw_integers(rng, 0, post.n, int(counts.sum()), np.int32)
        if no_self:
            post_idx = _drop_self(counts, post_idx)
    else:
        # Every pair, a block of rows at a time: all of them, or the
        # ones a uniform draw per pair selects.
        counts = np.empty(pre.n, dtype=np.int64)
        columns = []
        step = max(1, BUILD_BLOCK // post.n)
        for first in range(0, pre.n, step):
            n_rows = min(step, pre.n - first)
            if probability < 1.0:
                hit = rng.random((n_rows, post.n)) < probability
            else:
                hit = np.ones((n_rows, post.n), dtype=bool)
            if no_self:  # (r, first + r) is flat first + r * (post.n + 1)
                hit.ravel()[first::post.n + 1] = False
            row_of, column = np.divmod(np.flatnonzero(hit), post.n)
            counts[first:first + n_rows] = np.bincount(row_of, minlength=n_rows)
            columns.append(column.astype(np.int32))
        post_idx = columns[0] if len(columns) == 1 else np.concatenate(columns)
        del columns  # or the pieces outlive the draws below
    n_syn = post_idx.size
    if weight_std > 0.0:
        weights = rng.normal(weight, weight_std, size=n_syn)
        if weight >= 0:
            np.clip(weights, 0.0, None, out=weights)
        else:
            np.clip(weights, None, 0.0, out=weights)
    else:  # a constant table: the one weight, stored once
        weights = np.broadcast_to(np.float64(weight), n_syn)
    if delay_jitter > 0:
        longest = delay_steps + delay_jitter
        delays = _draw_integers(
            rng, delay_steps, longest + 1, n_syn, np.min_scalar_type(longest)
        )
    else:
        delays = np.broadcast_to(np.int64(delay_steps), n_syn)
    return Projection.from_rows(
        pre, post, counts, post_idx, weights, delays, syn_type, name=name
    )


def _draw_integers(rng, low, high, size, dtype) -> np.ndarray:
    """``rng.integers(low, high, size)`` narrowed to ``dtype``, drawn
    ``BUILD_BLOCK`` values at a time."""
    out = np.empty(size, dtype=dtype)
    for first in range(0, size, BUILD_BLOCK):
        n = min(BUILD_BLOCK, size - first)
        out[first:first + n] = rng.integers(low, high, size=n)
    return out


def _drop_self(counts: np.ndarray, post_idx: np.ndarray) -> np.ndarray:
    """Drop the synapses onto their own row's neuron: ``post_idx`` is
    compacted in place (its kept prefix returned), ``counts`` updated."""
    kept = 0
    pre_ptr = np.concatenate(([0], np.cumsum(counts)))
    for first, last, synapses in _row_blocks(pre_ptr):
        block = post_idx[synapses]
        row_of = np.arange(last - first).repeat(counts[first:last])
        own = block == row_of + first
        counts[first:last] -= np.bincount(row_of[own], minlength=last - first)
        block = block[~own]
        post_idx[kept:kept + block.size] = block
        kept += block.size
    return post_idx[:kept]
