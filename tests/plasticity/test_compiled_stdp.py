"""The compiled synapse index and the pair-STDP step that runs on it."""

import tracemalloc

import numpy as np
import pytest

from repro.models import create_model
from repro.network import (
    Network, PoissonStimulus, Population, Projection, Simulator, connect,
)
from repro.network import projection as projection_module
from repro.network.projection import SynapseIndex
from repro.plasticity import PairSTDP
from repro.reliability import Checkpoint
from tests.oracles.pair_stdp import ReferencePairSTDP

DT = 1e-4


def _projection(pre_idx, post_idx, n_pre, n_post, shared=False, seed=0):
    pre = Population("pre", n_pre, create_model("LIF"))
    post = pre if shared else Population("post", n_post, create_model("LIF"))
    rng = np.random.default_rng(seed)
    n = len(pre_idx)
    return Projection(
        pre, post,
        pre_idx=np.asarray(pre_idx, dtype=np.int64),
        post_idx=np.asarray(post_idx, dtype=np.int64),
        weights=rng.random(n),
        delays=rng.integers(1, 4, n),
        syn_type=0,
    )


def _random_projection(n_pre, n_post, n_synapses, shared=False, seed=0):
    rng = np.random.default_rng(seed)
    return _projection(
        rng.integers(0, n_pre, n_synapses), rng.integers(0, n_post, n_synapses),
        n_pre, n_post, shared=shared, seed=seed,
    )


#: name -> projection factory; together they cover the shapes the index
#: must not trip over.
SHAPES = {
    # neurons 0 and 5 have no outgoing synapse, 1 and 4 no incoming one
    "gaps": lambda: _projection([1, 1, 2, 3, 3, 4], [0, 2, 2, 3, 5, 0], 6, 6),
    "empty": lambda: _projection([], [], 4, 3),
    "recurrent": lambda: _random_projection(7, 7, 30, shared=True, seed=1),
    "feedforward": lambda: _random_projection(9, 4, 40, seed=2),
    # two synapses between the same pair, twice over
    "duplicates": lambda: _projection([0, 0, 1, 2, 2], [1, 1, 0, 2, 2], 3, 3),
    # events outnumber neurons from the first volley on
    "dense": lambda: _random_projection(3, 3, 60, seed=3),
}


def _spike_pattern(projection, steps, seed):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        yield (
            np.flatnonzero(rng.random(projection.pre.n) < 0.3),
            np.flatnonzero(rng.random(projection.post.n) < 0.3),
        )


def _sorted_reads(synapses, projection) -> bool:
    """Whether ``incoming`` sorts this many reads (a volley)."""
    return synapses.size * projection_module.SORT_SPACING > projection.n_synapses


def _queries_match_the_tables(index, projection, seed):
    """``outgoing`` and ``incoming`` against the decoded tables, on
    every neuron and on random fired sets of every size."""
    pre_of, post_of = projection.pre_of_synapses(), projection.post_idx
    rng = np.random.default_rng(seed)
    for fraction in (0.0, 0.2, 0.6, 1.0):
        fired_pre = np.flatnonzero(rng.random(projection.pre.n) < fraction)
        fired_post = np.flatnonzero(rng.random(projection.post.n) < fraction)
        rows, posts = index.outgoing(fired_pre)
        assert [row.start for row in rows] == projection.pre_ptr[fired_pre].tolist()
        flat = [s for row in rows for s in range(row.start, row.stop)]
        assert posts.dtype == np.intp and posts.tolist() == post_of[flat].tolist()
        synapses, pres = index.incoming(fired_post)
        assert synapses.dtype == pres.dtype == np.intp
        into = np.flatnonzero(np.isin(post_of, fired_post))  # CSR order
        if _sorted_reads(synapses, projection):  # a volley comes back sorted
            assert synapses.tolist() == into.tolist()
        else:  # by fired neuron, each one's synapses ascending
            slots = [s for j in fired_post for s in index.order[
                index.post_ptr[j]:index.post_ptr[j + 1]]]
            assert synapses.tolist() == slots
            assert sorted(slots) == into.tolist()
        assert pres.tolist() == pre_of[synapses].tolist()


class TestSynapseIndex:
    # The build walks whole rows: at a block of 1, shorter than most
    # SHAPES rows, every row is a block of its own.
    @pytest.mark.parametrize("block", [projection_module.BUILD_BLOCK, 7, 1])
    @pytest.mark.parametrize("radix", [True, False])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_post_sorted_view_is_the_stable_argsort(
        self, shape, radix, block, monkeypatch
    ):
        monkeypatch.setattr(projection_module, "BUILD_BLOCK", block)
        if not radix:
            monkeypatch.setattr(projection_module, "RADIX_KEY_LIMIT", 0)
        projection = SHAPES[shape]()
        index = SynapseIndex(projection)
        post_idx = projection.post_idx
        order = np.argsort(post_idx, kind="stable")
        assert index.order.tolist() == order.tolist()
        assert index.post_ptr.tolist() == [0] + np.cumsum(
            np.bincount(post_idx, minlength=projection.post.n)
        ).tolist()
        assert index.order.dtype == np.int32
        _queries_match_the_tables(index, projection, seed=block)

    def test_radix_keys_cover_the_largest_16_bit_population(self):
        # post.n == 65,536: neuron 65,535 is the largest uint16 key.
        projection = _projection(
            [0, 0, 1, 1], [65_535, 0, 65_535, 256], 2, projection_module.RADIX_KEY_LIMIT
        )
        index = SynapseIndex(projection)
        assert index.order.tolist() == [1, 3, 0, 2]
        assert index.post_ptr[-1] == 4 and index.post_ptr[65_535] == 2

    @pytest.mark.parametrize("n", [
        projection_module.RADIX_KEY_LIMIT, projection_module.RADIX_KEY_LIMIT + 1,
    ])
    def test_queries_reach_the_last_neuron(self, n):
        # Both sides hold n neurons: uint16 sort keys at the radix
        # limit, int32 past it; the last neuron is the largest number.
        projection = _projection(
            [0, 1, n - 1, n - 1], [2, n - 1, 1, n - 1], n, n
        )
        index = SynapseIndex(projection)
        assert index.order.tolist() == [2, 0, 1, 3]
        rows, posts = index.outgoing(np.array([n - 1, 1]))
        assert posts.tolist() == [1, n - 1, n - 1]
        synapses, pres = index.incoming(np.array([n - 1, 1]))
        assert synapses.tolist() == [1, 2, 3]  # a volley of 4 synapses
        assert pres.tolist() == [1, n - 1, n - 1]

    def test_queries_return_rows_in_fired_order(self, monkeypatch):
        """``outgoing`` keeps the fired order (a rule writes its rows
        back by it), and so does ``incoming`` short of a volley, which
        it sorts into CSR order."""
        projection = SHAPES["gaps"]()
        index = SynapseIndex(projection)
        rows, posts = index.outgoing(np.array([3, 0, 1]))
        assert [(row.start, row.stop) for row in rows] == [(3, 5), (0, 0), (0, 2)]
        assert posts.tolist() == [3, 5, 0, 2]
        synapses, pres = index.incoming(np.array([2, 1, 0]))
        assert synapses.tolist() == [0, 1, 2, 5]  # 4 reads of 6 synapses
        assert pres.tolist() == [1, 1, 2, 4]
        monkeypatch.setattr(projection_module, "SORT_SPACING", 1)
        synapses, pres = index.incoming(np.array([2, 1, 0]))
        assert synapses.tolist() == [1, 2, 0, 5]
        assert pres.tolist() == [1, 2, 1, 4]

    @pytest.mark.parametrize("lookup", [True, False])
    @pytest.mark.parametrize("fraction", [0.001, 0.02, 0.6])
    def test_both_source_rules_agree_with_the_csr_rows(
        self, fraction, lookup, monkeypatch
    ):
        """With a row lookup, a bucket and one row end; without, one
        search of ``pre_ptr`` per read; each on a few reads and on a
        volley (sorted into CSR order)."""
        if not lookup:
            monkeypatch.setattr(projection_module, "ROW_LOOKUP_BUCKETS", 0)
        projection = _random_projection(300, 200, 20_000, seed=9)
        index = SynapseIndex(projection)
        assert (index.first_row is not None) == lookup
        rng = np.random.default_rng(10)
        fired = np.flatnonzero(rng.random(200) < fraction)
        fired = fired if fired.size else np.array([7])
        synapses, pres = index.incoming(fired)
        assert _sorted_reads(synapses, projection) == (fraction > 0.5)
        into = np.flatnonzero(np.isin(projection.post_idx, fired))
        assert sorted(synapses.tolist()) == into.tolist()
        assert pres.tolist() == projection.pre_of_synapses()[synapses].tolist()

    def test_a_row_lookup_needs_rows_of_a_bucket_or_more(self):
        """Its buckets are no longer than the shortest row and at most
        ``ROW_LOOKUP_BUCKETS`` per row: an empty row, or one row much
        shorter than the rest, leaves the table without one."""
        regular = _projection(np.repeat([0, 1, 2], [5, 6, 9]), np.zeros(20), 3, 1)
        index = SynapseIndex(regular)
        assert index.shift == 2 and index.first_row.tolist() == [0, 0, 1, 2, 2]
        assert SynapseIndex(SHAPES["gaps"]()).first_row is None
        short = _projection(np.repeat([0, 1], [1, 40]), np.zeros(41), 2, 1)
        assert SynapseIndex(short).first_row is None  # 41 buckets, 2 rows

    def test_memory_budget(self, monkeypatch):
        """Resident: 4 B per synapse + O(neurons) (``post_ptr`` and the
        row lookup, 8 B per entry). Building: the index plus one block's
        scratch and O(neurons) — no per-synapse temporary (a 4 B one
        would break the bound)."""
        n, n_synapses = 2_000, 200_000
        projection = _random_projection(n, n, n_synapses, seed=4)
        # A sixteenth of the table per block: the scratch term (eight
        # int64 values per block synapse) is then 4 B per synapse.
        block = n_synapses // 16
        monkeypatch.setattr(projection_module, "BUILD_BLOCK", block)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            index = SynapseIndex(projection)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shared = {"pre_ptr", "targets"}  # the projection's own tables
        assert index.targets is projection.targets
        resident = sum(
            value.nbytes for name, value in vars(index).items()
            if isinstance(value, np.ndarray) and name not in shared
        )
        assert index.first_row is not None
        per_neuron = 8 * (1 + projection_module.ROW_LOOKUP_BUCKETS)
        assert resident <= 4 * n_synapses + per_neuron * (n + 1)
        assert peak - before <= 4 * n_synapses + 64 * block + 64 * n


class TestCompiledStep:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_the_reference_every_step(self, shape):
        projection = SHAPES[shape]()
        rule = PairSTDP(a_plus=0.3, a_minus=0.35, w_min=0.1, w_max=0.9)
        rule.attach(projection)
        reference = ReferencePairSTDP(rule)
        for fired_pre, fired_post in _spike_pattern(projection, 60, seed=5):
            rule.step(fired_pre, fired_post, DT)
            reference.step(fired_pre, fired_post, DT)
            reference.assert_matches()
        assert rule.steps_seen == 60
        if projection.n_synapses:
            assert rule.applied_updates > 0

    @pytest.mark.parametrize("lookup", [True, False])
    @pytest.mark.parametrize("regime", ["few", "many"])
    def test_equals_the_reference_in_both_incoming_regimes(
        self, regime, lookup, monkeypatch
    ):
        """One or two fired neurons, and fired fractions of at least a
        half on both sides (a volley: sorted into CSR order), with
        sources from the row lookup and from ``searchsorted``; pre and
        post are one population, so the sets overlap."""
        if not lookup:
            monkeypatch.setattr(projection_module, "ROW_LOOKUP_BUCKETS", 0)
        reads = []
        incoming = SynapseIndex.incoming

        def spy(index, fired_post):
            assert (index.first_row is not None) == lookup
            synapses, pres = incoming(index, fired_post)
            reads.append(_sorted_reads(synapses, projection))
            return synapses, pres

        monkeypatch.setattr(SynapseIndex, "incoming", spy)
        # A hundred synapses per row: a row lookup of 64-synapse buckets,
        # and two fired neurons read well short of a volley.
        targets = np.random.default_rng(11).integers(0, 40, 4_000)
        projection = _projection(
            np.repeat(np.arange(40), 100), targets, 40, 40, shared=True
        )
        rule = PairSTDP(a_plus=0.3, a_minus=0.35, w_min=0.1, w_max=0.9)
        rule.attach(projection)
        reference = ReferencePairSTDP(rule)
        rng = np.random.default_rng(12)
        for _ in range(40):
            if regime == "few":
                fired_pre = np.sort(rng.choice(40, rng.integers(1, 3), replace=False))
                fired_post = fired_pre if rng.random() < 0.5 else np.array([3])
            else:
                fired_pre = np.flatnonzero(rng.random(40) < 0.7)
                fired_post = np.flatnonzero(rng.random(40) < 0.7)
                assert np.intersect1d(fired_pre, fired_post).size
            rule.step(fired_pre, fired_post, DT)
            reference.step(fired_pre, fired_post, DT)
            reference.assert_matches()
        assert set(reads) == {regime == "many"}

    def test_both_trace_evaluation_branches_run_and_agree(self, monkeypatch):
        """Once per neuron when the reads outnumber the neurons, once
        per read otherwise — each checked against the reference."""
        taken = set()
        scaled_traces = PairSTDP._scaled_traces

        def spy(rule, amplitude, values, last, tau, neurons):
            taken.add(neurons.size > values.size)
            return scaled_traces(rule, amplitude, values, last, tau, neurons)

        monkeypatch.setattr(PairSTDP, "_scaled_traces", spy)
        for shape in ("dense", "feedforward"):
            projection = SHAPES[shape]()
            rule = PairSTDP(a_plus=0.3, a_minus=0.35)
            rule.attach(projection)
            reference = ReferencePairSTDP(rule)
            for fired_pre, fired_post in _spike_pattern(projection, 40, seed=6):
                rule.step(fired_pre, fired_post, DT)
                reference.step(fired_pre, fired_post, DT)
                reference.assert_matches()
        assert taken == {True, False}

    def test_a_synapse_in_both_sets_is_clipped_once_on_its_net_value(self):
        """Depressed to below ``w_min`` and potentiated to above
        ``w_max`` in the same step, net inside: the weight must be the
        net value, not a clip of either partial one."""
        projection = _projection([0], [0], 1, 1)
        projection.weights[:] = 0.5
        rule = PairSTDP(a_plus=0.3, a_minus=0.3, w_min=0.4, w_max=0.6)
        rule.attach(projection)
        both = np.array([0])
        rule.step(both, both, DT)  # traces were zero: nothing moves yet
        assert projection.weights[0] == 0.5
        rule.step(both, both, DT)
        decay = np.exp(-1 * (DT / 20e-3))
        depression = 0.3 * (1.0 * decay)
        potentiation = 0.3 * (1.0 * decay)
        assert 0.5 - depression < 0.4 and 0.5 + potentiation > 0.6
        assert projection.weights[0] == (0.5 - depression) + potentiation
        assert rule.applied_updates == 4

    def test_nothing_is_built_before_the_first_step_and_once_after(
        self, monkeypatch
    ):
        builds = []
        build_index = SynapseIndex.__init__

        def counted(index, projection):
            builds.append(projection.name)
            build_index(index, projection)

        monkeypatch.setattr(SynapseIndex, "__init__", counted)
        network = Network("plastic")
        network.add_population("exc", 40, "LIF")
        projection = network.connect("exc", "exc", probability=0.2, weight=0.3)
        rule = PairSTDP()
        network.add_plasticity(projection, rule)
        simulator = Simulator(network, dt=DT, seed=0)
        assert builds == [] and rule._index is None
        simulator.run(1)
        assert builds == ["exc->exc"] and rule._index is not None
        simulator.run(50)
        rule.restore(rule.snapshot())
        simulator.run(5)
        assert builds == ["exc->exc"]

    def test_no_int64_per_synapse_array_survives_the_first_step(self):
        projection = _random_projection(50, 50, 1_000, seed=7)
        rule = PairSTDP()
        rule.attach(projection)
        fired = np.arange(0, 50, 3)
        rule.step(fired, fired, DT)
        held = [
            (type(owner).__name__, name)
            for owner in (projection, rule, rule._index)
            for name, value in vars(owner).items()
            if isinstance(value, np.ndarray)
            and value.size >= projection.n_synapses
            and value.dtype.kind in "iu" and value.dtype.itemsize > 4
        ]
        assert held == []

    def test_step_allocation(self):
        """A silent step allocates nothing; a volley's peak is at most
        64 B per applied update."""
        n = 400
        projection = _random_projection(n, n, 40_000, shared=True, seed=8)
        rule = PairSTDP()
        rule.attach(projection)
        silent = np.empty(0, dtype=np.int64)
        volley = np.arange(0, n, 4)
        rule.step(volley, volley, DT)  # builds the index
        rule.step(silent, silent, DT)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            rule.step(silent, silent, DT)
            _, silent_peak = tracemalloc.get_traced_memory()
            applied = rule.applied_updates
            tracemalloc.reset_peak()
            rule.step(volley, volley, DT)
            _, volley_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        applied = rule.applied_updates - applied
        assert applied > 10_000
        assert silent_peak - before < 512  # a few Python ints, no array
        assert volley_peak - before <= 64 * applied


class TestConstantTable:
    """``connect(weight_std=0)`` stores one read-only weight; a rule owns
    a per-synapse copy from ``attach`` on, so a restore before the first
    step has an array to write."""

    @staticmethod
    def _network():
        network = Network("constant")
        exc = network.add_population("exc", 40, "DLIF")
        projection = network.connect(
            "exc", "exc", probability=0.2, weight=0.05, delay_jitter=3,
            rng=np.random.default_rng(77),
        )
        network.add_plasticity(projection, PairSTDP(a_plus=0.02, w_max=0.1))
        network.add_stimulus(
            PoissonStimulus(exc, rate_hz=800.0, weight=0.09, dt=DT, n_sources=8)
        )
        return network, projection

    def test_attach_gives_the_rule_its_own_writable_weights(self):
        pre, post = Population("pre", 30, create_model("LIF")), Population("post", 20, create_model("LIF"))
        projection = connect(pre, post, probability=0.3, weight=0.05)
        constant = projection.weights
        assert constant.strides == (0,) and not constant.flags.writeable
        rule = PairSTDP()
        rule.attach(projection)
        weights = projection.weights
        assert weights.flags.writeable and weights.flags.owndata
        assert weights.tobytes() == np.asarray(constant).tobytes()
        rule.attach(projection)  # attaching again keeps the rule's array
        assert projection.weights is weights

    def test_restore_before_the_first_step_resumes_bit_identically(self):
        network, projection = self._network()
        whole = Simulator(network, dt=DT, seed=11)
        first = whole.run(40)
        checkpoint = Checkpoint.capture(whole, spikes=first.spikes)
        halfway = projection.weights.copy()
        rest = whole.run(40, spikes=checkpoint.seed_recorder())

        network, resumed_projection = self._network()
        resumed = Simulator(network, dt=DT, seed=11)
        checkpoint.restore(resumed)  # writes the weights before any step
        result = resumed.run(40, spikes=checkpoint.seed_recorder())
        assert rest.total_spikes() > first.total_spikes() > 0
        assert result.spikes.digest() == rest.spikes.digest()
        assert not np.array_equal(projection.weights, halfway)  # it learned
        assert resumed_projection.weights.tobytes() == projection.weights.tobytes()
