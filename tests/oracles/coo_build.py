"""The network build before it was streamed.

``connect`` used to materialise ``pre_idx`` with ``np.repeat``, copy
both index arrays to drop self-connections and hand whole COO arrays to
``Projection.__init__``, which re-derived the CSR by ``searchsorted``
and encoded ``targets`` through whole-table int64 temporaries.
:func:`connect_coo` makes the same generator calls that way again and
:func:`encode_coo` is that encode, so the streamed build can be held to
them: same ``pre_ptr`` / ``targets`` / ``weights`` bytes and dtypes,
same delay bounds, same generator end state.
"""

from types import SimpleNamespace

import numpy as np


def encode_coo(pre, post, pre_idx, post_idx, weights, delays):
    """The CSR tables of valid COO synapse arrays (unsorted allowed)."""
    pre_idx = np.asarray(pre_idx, dtype=np.int64)
    post_idx = np.asarray(post_idx, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    delays = np.asarray(delays, dtype=np.int64)
    min_delay = int(delays.min()) if delays.size else 1
    max_delay = int(delays.max()) if delays.size else 1
    stride = post.n_synapse_types * post.n
    if np.any(pre_idx[1:] < pre_idx[:-1]):
        order = np.argsort(pre_idx, kind="stable")
        pre_idx, post_idx = pre_idx[order], post_idx[order]
        weights, delays = weights[order], delays[order]
    return SimpleNamespace(
        min_delay=min_delay,
        max_delay=max_delay,
        n_synapses=int(pre_idx.size),
        pre_ptr=np.searchsorted(pre_idx, np.arange(pre.n + 1)),
        targets=(delays * stride + post_idx).astype(np.int32),
        weights=weights,
    )


def connect_coo(
    pre,
    post,
    probability=1.0,
    weight=0.1,
    weight_std=0.0,
    delay_steps=1,
    delay_jitter=0,
    allow_self=False,
    rng=None,
    dense_pair_limit=4_000_000,
):
    """``connect`` as it drew and encoded before the streamed build
    (valid arguments only: the checks stayed in ``src/``)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if probability >= 1.0:
        pre_idx, post_idx = np.meshgrid(
            np.arange(pre.n), np.arange(post.n), indexing="ij"
        )
        pre_idx = pre_idx.ravel()
        post_idx = post_idx.ravel()
    elif pre.n * post.n <= dense_pair_limit:
        hits = np.flatnonzero(rng.random((pre.n, post.n)) < probability)
        pre_idx, post_idx = np.divmod(hits, post.n)
    else:
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
    return encode_coo(pre, post, pre_idx, post_idx, weights, delays)
