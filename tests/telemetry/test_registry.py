"""MetricsRegistry: counter/gauge/histogram semantics and exports."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("events_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_set_total_is_monotone(self):
        counter = MetricsRegistry().counter("events_total")
        counter.set_total(10)
        counter.set_total(10)
        counter.set_total(12)
        with pytest.raises(ConfigurationError):
            counter.set_total(3)

    def test_create_or_get_returns_same_child(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labels={"phase": "neuron"}).inc(2)
        again = registry.counter("events_total", labels={"phase": "neuron"})
        assert again.value == 2

    def test_label_sets_are_independent_children(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labels={"phase": "neuron"}).inc(2)
        registry.counter("events_total", labels={"phase": "synapse"}).inc(7)
        snapshot = registry.snapshot()["events_total"]
        values = {
            tuple(entry["labels"].items()): entry["value"]
            for entry in snapshot["values"]
        }
        assert values == {
            (("phase", "neuron"),): 2,
            (("phase", "synapse"),): 7,
        }

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("bad name")


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.5)
        gauge.inc(-1.0)
        assert gauge.value == 2.5


class TestHistogram:
    def test_observe_buckets_cumulatively(self):
        histogram = MetricsRegistry().histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        # Per-bucket: <=0.1 -> 1, <=1.0 -> 2, <=10 -> 1, +Inf -> 1.
        assert histogram.bucket_counts == [1, 2, 1, 1]
        assert histogram.cumulative_counts() == [1, 3, 4, 5]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)

    def test_boundary_value_lands_in_its_le_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts == [1, 0, 0]

    def test_quantile_from_buckets(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 4.0
        assert MetricsRegistry().histogram("e", buckets=(1.0,)).quantile(0.5) == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_rebinding_different_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestExports:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "steps_total", "Steps simulated.", {"workload": "brunel"}
        ).inc(100)
        registry.gauge("activity", "Activity factor.").set(0.25)
        hist = registry.histogram("step_seconds", "Step time.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_snapshot_is_json_serialisable_and_deterministic(self):
        registry = self.make_registry()
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == json.loads(
            json.dumps(registry.snapshot())
        )
        assert snapshot["steps_total"]["type"] == "counter"
        assert snapshot["steps_total"]["values"][0]["labels"] == {
            "workload": "brunel"
        }
        assert snapshot["step_seconds"]["values"][0]["buckets"]["+Inf"] == 2

    def test_empty_registry_exports_empty(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}


class TestNameValidation:
    """Family names follow the Prometheus metric-name grammar."""

    def test_leading_digit_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("9starts_with_digit")

    def test_punctuation_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().gauge("has-dash")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().gauge("")

    def test_underscore_prefix_allowed(self):
        MetricsRegistry().gauge("_private_ok")
