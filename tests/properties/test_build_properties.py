"""The streamed network build against the whole-array build it replaced.

``connect`` and ``Projection(...)`` encode their tables a block of rows
at a time (``repro.network.projection``); ``tests/oracles/coo_build.py``
is the build as it was, whole COO arrays through whole-table
temporaries. The two must agree on every table byte and dtype, on the
delay bounds and on where they leave the generator — the draws are part
of every spike digest — whatever the block size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import create_model
from repro.network import Population, Projection, connect
from repro.network import projection as build
from tests.oracles.coo_build import connect_coo, encode_coo

TABLES = ("pre_ptr", "targets", "weights")
BOUNDS = ("min_delay", "max_delay", "n_synapses")
#: 1 and 7 cut inside rows and between them; the last is one block.
BLOCKS = (1, 7, build.BUILD_BLOCK)


def assert_same_tables(streamed, oracle):
    for table in TABLES:
        ours, theirs = getattr(streamed, table), getattr(oracle, table)
        assert ours.dtype == theirs.dtype, table
        assert ours.shape == theirs.shape, table
        assert ours.tobytes() == theirs.tobytes(), table
    for bound in BOUNDS:
        assert getattr(streamed, bound) == getattr(oracle, bound), bound


@st.composite
def connections(draw):
    n_pre = draw(st.integers(1, 24))
    shared = draw(st.booleans())
    weight = draw(st.sampled_from([0.1, -2.0, 0.0]))
    return dict(
        n_pre=n_pre,
        n_post=n_pre if shared else draw(st.integers(1, 24)),
        shared=shared,
        # On either side of the dense/sampled switch (the limit is
        # patched down to this many pairs).
        dense_pair_limit=draw(st.sampled_from([0, 10**6])),
        block=draw(st.sampled_from(BLOCKS)),
        seed=draw(st.integers(0, 2**32 - 1)),
        arguments=dict(
            probability=draw(st.sampled_from([0.0, 0.05, 0.4, 1.0])),
            weight=weight,
            weight_std=draw(st.sampled_from([0.0, 0.3])),
            delay_steps=draw(st.integers(1, 4)),
            delay_jitter=draw(st.sampled_from([0, 3, 300])),
            allow_self=draw(st.booleans()),
        ),
    )


class TestStreamedBuild:
    @given(connections())
    @settings(max_examples=150, deadline=None)
    def test_connect_matches_the_whole_array_build(self, case):
        pre = Population("pre", case["n_pre"], create_model("LIF"))
        post = pre if case["shared"] else Population("post", case["n_post"], create_model("LIF"))
        ours, theirs = (np.random.default_rng(case["seed"]) for _ in range(2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(build, "BUILD_BLOCK", case["block"])
            patch.setattr(build, "DENSE_PAIR_LIMIT", case["dense_pair_limit"])
            streamed = connect(pre, post, rng=ours, **case["arguments"])
        oracle = connect_coo(
            pre, post, rng=theirs, dense_pair_limit=case["dense_pair_limit"],
            **case["arguments"],
        )
        assert_same_tables(streamed, oracle)
        # Same calls on the generator, in the same order and sizes.
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert streamed.stride == post.n_synapse_types * post.n

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 9)),
            max_size=60,
        ),
        st.sampled_from(BLOCKS),
    )
    @settings(max_examples=100, deadline=None)
    def test_unsorted_coo_input_matches_the_whole_array_build(
        self, n_pre, n_post, synapses, block
    ):
        pre, post = Population("pre", n_pre, create_model("LIF")), Population("post", n_post, create_model("LIF"))
        pre_idx = np.array([s[0] % n_pre for s in synapses], dtype=np.int64)
        post_idx = np.array([s[1] % n_post for s in synapses], dtype=np.int64)
        delays = np.array([s[2] for s in synapses], dtype=np.int64)
        weights = np.arange(len(synapses), dtype=np.float64)
        given_arrays = [a.copy() for a in (pre_idx, post_idx, weights, delays)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(build, "BUILD_BLOCK", block)
            streamed = Projection(pre, post, pre_idx, post_idx, weights, delays, 0)
        assert_same_tables(streamed, encode_coo(pre, post, *given_arrays))
        # The caller's index arrays are read, never encoded into.
        for before, after in zip(given_arrays, (pre_idx, post_idx, weights, delays)):
            assert np.array_equal(before, after)


#: ``connect`` cuts these calls into ``BUILD_BLOCK``-sized chunks (and
#: draws ``normal`` after a chunked call); a numpy whose chunked draws
#: differ from one call's should fail here, not as a changed digest.
STREAM_FACTS = {
    "integers below 2**32": lambda rng, n: rng.integers(0, 8000, size=n),
    "integers in a delay range": lambda rng, n: rng.integers(10, 21, size=n),
    "random, whole rows": lambda rng, n: rng.random((n, 13)),
    "normal": lambda rng, n: rng.normal(0.4, 0.04, size=n),
}


@pytest.mark.parametrize("fact", STREAM_FACTS)
def test_chunked_draws_are_one_call(fact):
    draw = STREAM_FACTS[fact]
    whole, chunked = np.random.default_rng(11), np.random.default_rng(11)
    expected = draw(whole, 1000)
    # Odd chunk lengths: a 32-bit draw leaves half a word buffered in
    # the bit generator, and the next chunk must pick it up.
    pieces = [draw(chunked, n) for n in (1, 7, 0, 333, 659)]
    assert np.array_equal(np.concatenate(pieces), expected)
    assert chunked.bit_generator.state == whole.bit_generator.state
    assert expected.dtype == pieces[0].dtype

