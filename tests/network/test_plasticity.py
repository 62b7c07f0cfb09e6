"""Tests for pair-based STDP and its simulator integration."""

import math

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.models import create_model
from repro.network import Network, PatternStimulus, Population, Projection, Simulator
from repro.network.projection import SynapseIndex
from repro.plasticity import PairSTDP
from tests.oracles.pair_stdp import shadowed

DT = 1e-4


def _one_to_one(weight=0.5):
    pre = Population("pre", 3, create_model("LIF"))
    post = Population("post", 3, create_model("LIF"))
    projection = Projection(
        pre,
        post,
        pre_idx=np.array([0, 1, 2]),
        post_idx=np.array([0, 1, 2]),
        weights=np.full(3, weight),
        delays=np.array([1, 1, 1]),
        syn_type=0,
    )
    return projection


def _fire(*idx):
    return np.asarray(idx, dtype=np.int64)


class TestPairSTDPRule:
    def test_requires_attachment(self):
        rule = PairSTDP()
        with pytest.raises(SimulationError):
            rule.step(_fire(), _fire(), DT)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            PairSTDP(tau_plus=0.0)
        with pytest.raises(ConfigurationError):
            PairSTDP(w_min=1.0, w_max=0.0)

    @pytest.mark.parametrize("field", ["a_plus", "a_minus", "w_min", "w_max",
                                       "tau_plus", "tau_minus"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x",
                                       None, True])
    def test_rejects_non_finite_and_non_real_parameters(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PairSTDP(**{field: value})

    def test_accepts_numpy_and_integer_parameters(self):
        rule = PairSTDP(a_plus=np.float32(0.5), w_max=2, tau_plus=np.float64(0.01))
        assert (rule.a_plus, rule.w_max, rule.tau_plus) == (0.5, 2, 0.01)

    def test_weight_outside_the_range_stays_until_its_first_event(self):
        projection = _one_to_one(weight=0.5)
        rule = PairSTDP(w_max=0.1)
        rule.attach(projection)
        rule.step(_fire(0), _fire(), DT)
        rule.step(_fire(), _fire(0), DT)
        assert projection.weights.tolist() == [0.1, 0.5, 0.5]

    def test_pre_before_post_potentiates(self):
        projection = _one_to_one()
        rule = PairSTDP(a_plus=0.1, a_minus=0.1)
        rule.attach(projection)
        rule.step(_fire(0), _fire(), DT)  # pre spike
        before = projection.weights[0]
        rule.step(_fire(), _fire(0), DT)  # post spike one step later
        assert projection.weights[0] > before

    def test_post_before_pre_depresses(self):
        projection = _one_to_one()
        rule = PairSTDP(a_plus=0.1, a_minus=0.1)
        rule.attach(projection)
        rule.step(_fire(), _fire(0), DT)  # post spike
        before = projection.weights[0]
        rule.step(_fire(0), _fire(), DT)  # pre spike one step later
        assert projection.weights[0] < before

    def test_simultaneous_pair_is_neutral(self):
        projection = _one_to_one()
        rule = PairSTDP(a_plus=0.1, a_minus=0.1)
        rule.attach(projection)
        before = projection.weights.copy()
        rule.step(_fire(0), _fire(0), DT)
        np.testing.assert_array_equal(projection.weights, before)

    def test_update_magnitude_decays_with_time_difference(self):
        def potentiation_after(gap_steps):
            projection = _one_to_one()
            rule = PairSTDP(a_plus=0.1, tau_plus=20e-3)
            rule.attach(projection)
            rule.step(_fire(0), _fire(), DT)
            for _ in range(gap_steps - 1):
                rule.step(_fire(), _fire(), DT)
            before = projection.weights[0]
            rule.step(_fire(), _fire(0), DT)
            return projection.weights[0] - before

        short = potentiation_after(1)
        long = potentiation_after(100)
        assert short > long > 0.0
        # The decay follows exp(-gap / tau): 100 steps = 10 ms = tau/2.
        assert long / short == pytest.approx(math.exp(-99 * DT / 20e-3), rel=1e-6)

    def test_only_touched_synapses_change(self):
        projection = _one_to_one()
        rule = PairSTDP(a_plus=0.1, a_minus=0.1)
        rule.attach(projection)
        rule.step(_fire(0), _fire(), DT)
        before = projection.weights.copy()
        rule.step(_fire(), _fire(0), DT)
        assert projection.weights[0] != before[0]
        np.testing.assert_array_equal(projection.weights[1:], before[1:])

    def test_weights_clip_to_bounds(self):
        projection = _one_to_one(weight=0.99)
        rule = PairSTDP(a_plus=10.0, a_minus=10.0, w_min=0.0, w_max=1.0)
        rule.attach(projection)
        for _ in range(5):
            rule.step(_fire(0), _fire(), DT)
            rule.step(_fire(), _fire(0), DT)
        assert 0.0 <= projection.weights[0] <= 1.0

    def test_traces_decay_exponentially(self):
        projection = _one_to_one()
        rule = PairSTDP(tau_plus=20e-3)
        rule.attach(projection)
        rule.step(_fire(0), _fire(), DT)
        first = rule.pre_trace[0]
        for _ in range(10):
            rule.step(_fire(), _fire(), DT)
        assert rule.pre_trace[0] == pytest.approx(
            first * math.exp(-10 * DT / 20e-3)
        )

    def test_cannot_attach_to_two_projections(self):
        rule = PairSTDP()
        rule.attach(_one_to_one())
        with pytest.raises(ConfigurationError):
            rule.attach(_one_to_one())

    def test_mean_weight_monitor(self):
        projection = _one_to_one(weight=0.5)
        rule = PairSTDP()
        rule.attach(projection)
        assert rule.mean_weight() == pytest.approx(0.5)

    def test_rejects_changing_dt(self):
        rule = PairSTDP()
        rule.attach(_one_to_one())
        rule.step(_fire(0), _fire(), DT)
        with pytest.raises(SimulationError):
            rule.step(_fire(), _fire(0), DT * 2)

    def test_deferred_counters_scale_with_silence(self):
        rule = PairSTDP()
        rule.attach(_one_to_one())
        for _ in range(10):
            rule.step(_fire(), _fire(), DT)
        # 3 pre + 3 post traces, decayed by the dense schedule on
        # every one of 10 silent steps, all deferred by the lazy one.
        assert rule.deferred_updates == 60
        assert rule.applied_updates == 0
        assert rule.trace_refreshes == 0
        assert rule.steps_seen == 10

    def test_dense_mode_defers_nothing(self, tmp_path, capsys):
        """The dense reference mode is gone: no constructor argument and
        no spec key selects another step."""
        import json

        from repro.cli import main
        from repro.workloads import spec_for

        with pytest.raises(TypeError, match="deferred"):
            PairSTDP(deferred=False)
        spec = spec_for("Brunel", 0.02)
        spec["projections"][0]["plasticity"] = {
            "rule": "pair_stdp", "deferred": False,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "'deferred'" in captured.err
        assert captured.out == ""

    def test_restore_rejects_pre_lazy_payload(self):
        rule = PairSTDP()
        rule.attach(_one_to_one())
        legacy = {
            "x_pre": np.zeros(3),
            "y_post": np.zeros(3),
            "weights": np.full(3, 0.5),
        }
        with pytest.raises(CheckpointError, match="lazy-trace"):
            rule.restore(legacy)


class TestProjectionIndexViews:
    def test_pre_of_synapses(self):
        projection = _one_to_one()
        assert projection.pre_of_synapses().tolist() == [0, 1, 2]
        # Build-time users only: nothing is cached on the projection.
        assert projection.pre_of_synapses() is not projection.pre_of_synapses()

    def test_synapse_indices_into(self):
        pre = Population("pre", 2, create_model("LIF"))
        post = Population("post", 2, create_model("LIF"))
        projection = Projection(
            pre, post,
            pre_idx=np.array([0, 0, 1]),
            post_idx=np.array([0, 1, 1]),
            weights=np.ones(3),
            delays=np.ones(3, dtype=np.int64),
            syn_type=0,
        )
        into_1, pres = SynapseIndex(projection).incoming(np.array([1]))
        assert projection.post_idx[into_1].tolist() == [1, 1]
        assert pres.tolist() == projection.pre_of_synapses()[into_1].tolist()
        assert pres.tolist() == [0, 1]

    def test_empty_queries(self):
        index = SynapseIndex(_one_to_one())
        rows, posts = index.outgoing(_fire())
        assert posts.size == 0 and rows == []
        synapses, pres = index.incoming(_fire())
        assert synapses.size == 0 and pres.size == 0


class TestSimulatorIntegration:
    def _learning_network(self):
        net = Network("stdp")
        inputs = net.add_population("inputs", 4, "LIF")
        net.add_population("output", 1, "LIF")
        # Weak enough that input arrivals alone never fire the
        # output: only the forced "teacher" spike at step 3 does.
        projection = net.connect(
            "inputs", "output", probability=1.0, weight=5.0, delay_steps=1
        )
        # Channels 0,1 fire 2 steps before the output is forced to
        # fire; channels 2,3 fire right after it.
        net.add_stimulus(
            PatternStimulus(inputs, {0: [0, 1], 5: [2, 3]}, weight=200.0,
                            period=40)
        )
        net.add_stimulus(
            PatternStimulus(
                net.populations["output"], {3: [0]}, weight=200.0, period=40
            )
        )
        rule = PairSTDP(a_plus=0.5, a_minus=0.5, w_min=0.0, w_max=20.0)
        net.add_plasticity(projection, rule)
        return net, projection, rule

    def test_causal_channels_potentiate_anticausal_depress(self):
        net, projection, rule = self._learning_network()
        Simulator(net, dt=DT, seed=0).run(400)
        pre_of = projection.pre_of_synapses()
        causal = projection.weights[np.isin(pre_of, [0, 1])].mean()
        anticausal = projection.weights[np.isin(pre_of, [2, 3])].mean()
        assert causal > 5.0
        assert anticausal < 5.0

    def test_weights_frozen_without_rule(self):
        net = Network("static")
        inputs = net.add_population("inputs", 4, "LIF")
        net.add_population("output", 1, "LIF")
        projection = net.connect(
            "inputs", "output", probability=1.0, weight=30.0
        )
        net.add_stimulus(
            PatternStimulus(inputs, {0: [0, 1, 2, 3]}, weight=200.0, period=10)
        )
        Simulator(net, dt=DT, seed=0).run(200)
        assert np.all(projection.weights == 30.0)

    def test_add_plasticity_requires_member_projection(self):
        net = Network("x")
        net.add_population("a", 2, "LIF")
        foreign = _one_to_one()
        with pytest.raises(ConfigurationError):
            net.add_plasticity(foreign, PairSTDP())

    @pytest.mark.parametrize("second", ["same rule", "another rule"])
    def test_a_projection_takes_one_rule(self, second):
        """A second rule (or the first one again) would step the
        projection's weights twice per step; both are refused, and the
        network keeps its one rule."""
        net, projection, rule = self._learning_network()
        again = rule if second == "same rule" else PairSTDP()
        with pytest.raises(ConfigurationError, match="'inputs->output' is already plastic"):
            net.add_plasticity(projection, again)
        assert net.plasticity_rules == [rule]

    def test_lazy_and_dense_runs_are_bit_identical(self):
        """The compiled step equals the per-synapse reference inside a
        simulator run: weight bytes, traces and counters, every step."""
        net, projection, rule = self._learning_network()
        reference = shadowed(rule)
        result = Simulator(net, dt=DT, seed=0).run(400)
        assert result.total_spikes() > 0
        assert rule.applied_updates == reference.state["applied_updates"] > 0
        assert rule.steps_seen == 400

    def test_lazy_equals_dense_on_vogels(self):
        """STDP on Vogels et al.'s recurrent exc->exc projection (RKF45,
        spiking at this scale): the compiled step must defer work and
        still reproduce the per-synapse reference bit for bit — every
        step, through volleys that take the once-per-neuron branch."""
        from repro.frontend import build_simulation
        from repro.workloads import spec_for

        simulator, network = build_simulation(
            spec_for("Vogels et al.", scale=0.05, seed=5)
        )
        rule = PairSTDP()
        recurrent = next(
            projection for projection in network.projections
            if projection.pre.name == projection.post.name == "exc"
        )
        network.add_plasticity(recurrent, rule)
        reference = shadowed(rule)
        result = simulator.run(300)
        assert result.total_spikes() > 0
        assert rule.deferred_updates > 0
        assert rule.applied_updates == reference.state["applied_updates"] > 0

    def test_plasticity_metrics_published_integrally(self):
        from repro.telemetry import MetricsRegistry

        net, projection, rule = self._learning_network()
        metrics = MetricsRegistry()
        Simulator(net, dt=DT, seed=0).run(200, metrics=metrics)
        snapshot = metrics.snapshot()
        deferred = snapshot["plasticity_deferred_updates_total"]["values"][0]
        assert deferred["labels"]["projection"] == projection.name
        assert deferred["value"] == rule.deferred_updates > 0
        assert type(deferred["value"]) is int
        applied = snapshot["plasticity_applied_updates_total"]["values"][0]
        assert applied["value"] == rule.applied_updates > 0
        assert type(applied["value"]) is int
        enqueued = snapshot["ring_events_enqueued_total"]["values"]
        assert all(type(entry["value"]) is int for entry in enqueued)
        assert sum(entry["value"] for entry in enqueued) > 0
