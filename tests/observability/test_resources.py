"""Per-process resource telemetry: readers, sampler, published families."""

from repro.observability.resources import (
    PROCESS_CPU,
    PROCESS_FDS,
    PROCESS_RSS,
    ResourceSampler,
    declare_process_metrics,
    read_cpu_seconds,
    read_open_fds,
    read_rss_bytes,
)
from repro.telemetry import MetricsRegistry


def _value(registry, name):
    (child,) = registry.snapshot()[name]["values"]
    return child["value"]


class TestReaders:
    def test_rss_is_positive_on_this_host(self):
        # A running Python interpreter is megabytes resident.
        assert read_rss_bytes() > 1_000_000

    def test_cpu_seconds_nonnegative_and_monotone(self):
        first = read_cpu_seconds()
        # Burn a little CPU so the second reading can only grow.
        sum(i * i for i in range(200_000))
        second = read_cpu_seconds()
        assert 0.0 <= first <= second

    def test_open_fds_counts_a_newly_opened_file(self, tmp_path):
        before = read_open_fds()
        if before is None:  # /proc-less platform: reader degrades to None
            return
        with open(tmp_path / "probe", "w"):
            during = read_open_fds()
        assert during == before + 1


class TestResourceSampler:
    def test_sample_has_the_heartbeat_keys(self):
        sample = ResourceSampler().sample()
        assert set(sample) == {"rss_bytes", "cpu_seconds", "open_fds"}
        assert sample["rss_bytes"] > 0.0
        assert sample["cpu_seconds"] >= 0.0

    def test_cpu_floor_keeps_the_counter_monotone(self):
        sampler = ResourceSampler()
        sampler.sample()
        # Simulate a getrusage glitch reporting less CPU than before.
        sampler._cpu_floor = 1e9
        assert sampler.sample()["cpu_seconds"] == 1e9

    def test_publish_lands_on_the_pinned_families(self):
        registry = MetricsRegistry()
        values = ResourceSampler().publish(registry)
        assert _value(registry, PROCESS_RSS) == values["rss_bytes"]
        assert _value(registry, PROCESS_CPU) == values["cpu_seconds"]
        if values["open_fds"] is not None:
            assert _value(registry, PROCESS_FDS) == values["open_fds"]

    def test_publish_is_repeatable_on_one_registry(self):
        # Every /metrics scrape republishes; declaration must be
        # idempotent and values must refresh in place.
        registry = MetricsRegistry()
        sampler = ResourceSampler()
        sampler.publish(registry)
        second = sampler.publish(registry)
        assert _value(registry, PROCESS_CPU) == second["cpu_seconds"]


class TestDeclareProcessMetrics:
    def test_names_and_kinds_are_pinned(self):
        registry = MetricsRegistry()
        declare_process_metrics(registry)
        text = registry.to_prometheus()
        assert "# TYPE process_resident_memory_bytes gauge" in text
        assert "# TYPE process_cpu_seconds_total counter" in text
        assert "# TYPE process_open_fds gauge" in text
