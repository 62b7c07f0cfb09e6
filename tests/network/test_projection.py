"""Tests for projections and the connect() builder."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import create_model
from repro.network import Population, Projection, Simulator, connect
from repro.network import projection as projection_module
from repro.network.projection import SynapseIndex
from repro.plasticity import PairSTDP


def _pops(n_pre=10, n_post=20):
    return Population("pre", n_pre, create_model("LIF")), Population("post", n_post, create_model("LIF"))


class TestProjection:
    def test_csr_layout_sorted_by_pre(self):
        pre, post = _pops()
        proj = Projection(
            pre,
            post,
            pre_idx=np.array([3, 1, 1, 0]),
            post_idx=np.array([5, 6, 7, 8]),
            weights=np.array([0.1, 0.2, 0.3, 0.4]),
            delays=np.array([1, 2, 3, 4]),
            syn_type=0,
        )
        assert proj.n_synapses == 4
        # pre 0 -> ptr [0,1); pre 1 -> [1,3); pre 3 -> [3,4)
        assert list(proj.pre_ptr[:5]) == [0, 1, 3, 3, 4]
        assert proj.post_idx[0] == 8  # pre 0's synapse

    def test_synapses_of_gathers_fired_rows(self):
        pre, post = _pops()
        proj = Projection(
            pre,
            post,
            pre_idx=np.array([0, 0, 2]),
            post_idx=np.array([1, 2, 3]),
            weights=np.array([0.5, 0.6, 0.7]),
            delays=np.array([1, 2, 3]),
            syn_type=0,
        )
        targets, weights = proj.synapses_of(np.array([0, 2]))
        # Ring targets are delay * (n_synapse_types * post.n) + post_idx,
        # in CSR order.
        stride = post.n_synapse_types * post.n
        assert targets.dtype == np.int32
        assert targets.tolist() == [stride + 1, 2 * stride + 2, 3 * stride + 3]
        assert weights.tolist() == [0.5, 0.6, 0.7]
        assert proj.synapses_of(np.array([2]))[0].tolist() == [3 * stride + 3]
        assert proj.post_idx.tolist() == [1, 2, 3]
        assert proj.delays.tolist() == [1, 2, 3]
        assert proj.post_idx[[2, 0]].tolist() == [3, 1]

    def test_synapses_of_empty_fired(self):
        pre, post = _pops()
        proj = connect(pre, post, probability=0.5, rng=np.random.default_rng(0))
        targets, weights = proj.synapses_of(np.array([], dtype=np.int64))
        assert targets.size == 0 and weights.size == 0

    def test_synapses_of_neuron_without_outgoing(self):
        pre, post = _pops()
        proj = Projection(
            pre,
            post,
            pre_idx=np.array([0]),
            post_idx=np.array([1]),
            weights=np.array([0.5]),
            delays=np.array([1]),
            syn_type=0,
        )
        targets, weights = proj.synapses_of(np.array([5]))
        assert targets.size == 0 and weights.size == 0

    def test_max_delay(self):
        pre, post = _pops()
        proj = Projection(
            pre, post,
            pre_idx=np.array([0, 1]),
            post_idx=np.array([0, 1]),
            weights=np.array([1.0, 1.0]),
            delays=np.array([3, 9]),
            syn_type=0,
        )
        assert proj.max_delay == 9
        assert proj.min_delay == 3

    def test_rejects_ring_targets_beyond_int32(self):
        # (max_delay + 1) * n_synapse_types * post.n must stay below
        # 2**31; the error names both endpoints.
        pre, post = _pops(2, 2**26)
        assert post.n_synapse_types == 2
        synapse = dict(
            pre_idx=np.array([1]),
            post_idx=np.array([2**26 - 1]),
            weights=np.array([1.0]),
            syn_type=1,
        )
        with pytest.raises(ConfigurationError) as error:
            Projection(pre, post, delays=np.array([15]), **synapse)
        assert "'pre'" in str(error.value) and "'post'" in str(error.value)
        proj = Projection(pre, post, delays=np.array([14]), **synapse)
        assert proj.targets.tolist() == [14 * 2**27 + 2**26 - 1]
        assert proj.post_idx.tolist() == [2**26 - 1]
        assert proj.delays.tolist() == [14]

    def test_rejects_mismatched_arrays(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError):
            Projection(
                pre, post,
                pre_idx=np.array([0]),
                post_idx=np.array([0, 1]),
                weights=np.array([1.0]),
                delays=np.array([1]),
                syn_type=0,
            )

    def test_rejects_out_of_range_indices(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError):
            Projection(
                pre, post,
                pre_idx=np.array([99]),
                post_idx=np.array([0]),
                weights=np.array([1.0]),
                delays=np.array([1]),
                syn_type=0,
            )

    def test_rejects_zero_delay(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError):
            Projection(
                pre, post,
                pre_idx=np.array([0]),
                post_idx=np.array([0]),
                weights=np.array([1.0]),
                delays=np.array([0]),
                syn_type=0,
            )

    def test_rejects_float_indices_and_delays(self):
        # They used to be truncated to ints without a word.
        pre, post = _pops()
        good = dict(
            pre_idx=np.array([0, 1]), post_idx=np.array([0, 1]),
            weights=np.array([1.0, 1.0]), delays=np.array([1, 1]),
        )
        for field in ("pre_idx", "post_idx", "delays"):
            bad = dict(good, **{field: np.array([0.5, 1.5])})
            with pytest.raises(ConfigurationError, match=f"'pre->post'.*{field}"):
                Projection(pre, post, syn_type=0, **bad)
        empty = [np.array([])] * 4  # numpy's empty default is float64
        assert Projection(pre, post, *empty, syn_type=0).n_synapses == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        pre, post = _pops()
        with pytest.raises(ConfigurationError, match="'named'.*weights"):
            Projection(
                pre, post,
                pre_idx=np.array([0, 1]),
                post_idx=np.array([0, 1]),
                weights=np.array([1.0, bad]),
                delays=np.array([1, 1]),
                syn_type=0,
                name="named",
            )

    def test_rejects_bad_synapse_type(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError):
            Projection(
                pre, post,
                pre_idx=np.array([0]),
                post_idx=np.array([0]),
                weights=np.array([1.0]),
                delays=np.array([1]),
                syn_type=5,
            )


class TestDerivedViews:
    """``post_idx`` / ``delays`` are decoded O(n_synapses) views for
    build-time users; the step loop must never touch them."""

    @pytest.mark.parametrize("plastic", [False, True])
    def test_a_run_never_decodes_the_synapse_table(
        self, small_network, monkeypatch, plastic
    ):
        if plastic:
            small_network.add_plasticity(
                small_network.projections[0], PairSTDP(w_max=0.1)
            )
        decoded = []
        for view in ("post_idx", "delays"):
            original = getattr(Projection, view).fget

            def counted(projection, view=view, original=original):
                decoded.append((projection.name, view))
                return original(projection)

            monkeypatch.setattr(Projection, view, property(counted))
        # A plastic projection decodes ``targets`` itself, once, into
        # the index its rule steps on.
        build_index = SynapseIndex.__init__

        def counted_build(index, projection):
            decoded.append((projection.name, "SynapseIndex"))
            build_index(index, projection)

        monkeypatch.setattr(SynapseIndex, "__init__", counted_build)
        simulator = Simulator(small_network, seed=1)
        assert decoded == []  # delay bounds are cached at construction
        first = simulator.run(200)
        assert first.total_spikes() > 0
        assert first.phases["synapse"].operations > 0
        # The one permitted decode: a plastic projection compiles its
        # synapse index once, at its rule's first step.
        assert decoded == ([("exc->exc", "SynapseIndex")] if plastic else [])
        del decoded[:]
        simulator.run(200)
        assert decoded == []

    def test_bounds_and_size_are_cached_attributes(self):
        pre, post = _pops()
        proj = connect(
            pre, post, probability=0.5, delay_steps=2, delay_jitter=3,
            rng=np.random.default_rng(1),
        )
        assert proj.n_synapses == proj.targets.size == proj.weights.size
        assert (proj.min_delay, proj.max_delay) == (
            proj.delays.min(), proj.delays.max(),
        )
        for attribute in ("n_synapses", "min_delay", "max_delay"):
            assert attribute in vars(proj)


class TestConnect:
    def test_all_to_all(self):
        pre, post = _pops(4, 5)
        proj = connect(pre, post, probability=1.0)
        assert proj.n_synapses == 20

    def test_self_connections_excluded_by_default(self):
        pop = Population("p", 6, create_model("LIF"))
        proj = connect(pop, pop, probability=1.0)
        assert proj.n_synapses == 30
        assert not np.any(
            np.repeat(np.arange(6), np.diff(proj.pre_ptr)) == proj.post_idx
        )

    def test_probability_hits_expected_count(self):
        pre, post = _pops(100, 100)
        proj = connect(
            pre, post, probability=0.1, rng=np.random.default_rng(3)
        )
        assert 800 <= proj.n_synapses <= 1200

    def test_sparse_path_for_large_pairs(self):
        # Above the 4M-pair threshold the binomial sampler kicks in.
        pre = Population("pre", 2500, create_model("LIF"))
        post = Population("post", 2500, create_model("LIF"))
        proj = connect(
            pre, post, probability=0.001, rng=np.random.default_rng(4)
        )
        expected = 2500 * 2500 * 0.001
        assert 0.8 * expected <= proj.n_synapses <= 1.2 * expected

    def test_weight_jitter_keeps_sign(self):
        pre, post = _pops(50, 50)
        proj = connect(
            pre, post, probability=0.5, weight=-0.1, weight_std=0.2,
            rng=np.random.default_rng(5),
        )
        assert np.all(proj.weights <= 0.0)

    def test_delay_jitter_range(self):
        pre, post = _pops(20, 20)
        proj = connect(
            pre, post, probability=1.0, delay_steps=3, delay_jitter=4,
            rng=np.random.default_rng(6),
        )
        assert proj.delays.min() >= 3
        assert proj.delays.max() <= 7

    def test_rejects_bad_probability(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError):
            connect(pre, post, probability=1.5)

    def test_rejects_zero_delay_steps(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError, match="delay_steps"):
            connect(pre, post, probability=1.0, delay_steps=0)

    def test_rejects_negative_delay_jitter(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError, match="delay_jitter"):
            connect(pre, post, probability=1.0, delay_jitter=-1)

    def test_rejects_non_integer_delay_fields(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError, match="delay_steps"):
            connect(pre, post, probability=1.0, delay_steps=1.5)
        with pytest.raises(ConfigurationError, match="delay_jitter"):
            connect(pre, post, probability=1.0, delay_jitter=True)

    def test_delay_errors_name_the_endpoints(self):
        pre, post = _pops()
        with pytest.raises(ConfigurationError, match="'pre' -> 'post'"):
            connect(pre, post, probability=1.0, delay_steps=-3)

    def test_numpy_integer_delays_accepted(self):
        pre, post = _pops()
        proj = connect(
            pre, post, probability=1.0,
            delay_steps=np.int64(2), delay_jitter=np.int32(0),
        )
        assert proj.min_delay == 2
        assert proj.max_delay == 2

    @pytest.mark.parametrize(
        "field, bad",
        [("weight", np.nan), ("weight", np.inf), ("weight", -np.inf),
         ("weight_std", -0.1), ("weight_std", np.nan), ("weight_std", np.inf)],
    )
    def test_rejects_bad_weight_fields(self, field, bad):
        # NaN / inf weights used to build a NaN / inf table, a negative
        # or NaN spread was taken for "no jitter".
        pre, post = _pops()
        with pytest.raises(ConfigurationError, match=f"'pre' -> 'post'.*{field} "):
            connect(pre, post, probability=0.5, **{field: bad})


class TestConstantTable:
    """``connect(weight_std=0)`` stores its weight once: ``weights`` is a
    read-only zero-stride view that reads as the ``np.full`` table."""

    def _constant(self, weight=-0.06, probability=0.3, **arguments):
        pre, post = _pops(30, 40)
        return connect(
            pre, post, probability=probability, weight=weight, delay_steps=2,
            delay_jitter=3, rng=np.random.default_rng(8), **arguments,
        )

    def test_weights_are_one_read_only_value(self):
        proj = self._constant()
        assert proj.weights.strides == (0,)
        assert proj.weights.shape == (proj.n_synapses,)
        assert np.asarray(proj.weights).tobytes() == (
            np.full(proj.n_synapses, -0.06).tobytes()
        )
        with pytest.raises(ValueError, match="read-only"):
            proj.weights[0] = 1.0
        drawn = self._constant(weight_std=0.01).weights
        assert drawn.strides == (8,) and drawn.flags.writeable

    def test_the_gather_returns_the_weight_as_a_scalar(self):
        proj = self._constant(weight=0.015)
        materialised = Projection.__new__(Projection)
        vars(materialised).update(vars(proj), weights=np.array(proj.weights))
        for fired in (np.array([0, 3, 4, 17]), np.array([4])):
            targets, weights = proj.synapses_of(fired)
            assert type(weights) is np.float64 and weights == 0.015
            expected = materialised.synapses_of(fired)
            ours = (targets, np.full(targets.shape, weights))
            for mine, theirs in zip(ours, expected):
                assert mine.tobytes() == theirs.tobytes()


class TestBuildMemory:
    """``connect`` holds the int32 index, the weights and a narrow delay
    array (13 B/synapse for Brunel's 10..20-step delays, 5 with a constant
    table) plus block-sized scratch: nothing table-sized beyond what the
    generator returns. The
    whole-array build it replaced peaked at 45 B/synapse (sampled) and
    90 B/synapse (dense: the pair matrix and its hit mask)."""

    ALLOWANCE = 8 * projection_module.BUILD_BLOCK * 8  # eight int64 blocks

    @staticmethod
    def _peak(n, probability, weight_std=0.04):
        pre, post = Population("pre", n, create_model("LIF")), Population("post", n, create_model("LIF"))
        rng = np.random.default_rng(2)
        tracemalloc.start()
        try:
            built = connect(
                pre, post, probability=probability, weight=0.4,
                weight_std=weight_std, delay_steps=10, delay_jitter=10, rng=rng,
            )
            return built, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sampled_path_peaks_under_24_bytes_per_synapse(self):
        built, peak = self._peak(3000, 0.2)  # 9 M pairs: out-degree sampling
        assert built.n_synapses > 1_500_000
        assert peak <= 24 * built.n_synapses + self.ALLOWANCE

    def test_dense_path_is_bounded_by_the_block_not_the_pair_matrix(self):
        built, peak = self._peak(2000, 0.02)  # 4 M pairs, 80 k synapses
        assert 2000 * 2000 <= projection_module.DENSE_PAIR_LIMIT
        assert peak <= 24 * built.n_synapses + self.ALLOWANCE
        assert peak < 2000 * 2000 * 8 // 2  # the pair matrix alone is 32 MB

    def test_a_constant_table_builds_no_weight_array(self):
        # 4 B index + 1 B delay per synapse; an np.full would add 8.
        built, peak = self._peak(3000, 0.2, weight_std=0.0)
        assert built.n_synapses > 1_500_000
        assert peak <= 8 * built.n_synapses + self.ALLOWANCE
