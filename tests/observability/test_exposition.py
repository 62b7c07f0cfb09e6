"""Prometheus text exposition: golden file, line grammar, round-trip.

The serve endpoint's contract is the exposition format itself — any
scrape pipeline must be able to ingest ``GET /metrics`` verbatim. These
tests pin the format three ways: a golden file (byte-exact output for a
representative registry), a line-grammar check (the structural rules a
real Prometheus parser enforces), and a round-trip through a live
``ObservabilityServer``.
"""

import os
import re
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.observability.server import ObservabilityServer
from repro.telemetry.registry import MetricsRegistry

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_metrics.txt")

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>[^ ]+)$"
)


def _representative_registry() -> MetricsRegistry:
    """The registry the golden file was generated from."""
    from repro.observability.resources import declare_process_metrics

    registry = MetricsRegistry()
    # The process self-telemetry families every serving process
    # exposes, pinned with fixed values (live values are unstable).
    rss, cpu, fds = declare_process_metrics(registry)
    rss.set(123456789.0)
    cpu.set_total(12.5)
    fds.set(32)
    registry.counter(
        "sim_steps_total",
        "Total simulated steps.",
        labels={"backend": "reference"},
    ).inc(400)
    registry.counter("sim_steps_total", labels={"backend": "flexon"}).inc(25)
    registry.gauge("run_steps_per_sec", "Instantaneous throughput.").set(1234.5)
    registry.gauge(
        "labels_need_escaping",
        "Help with a backslash \\ and\nnewline.",
        labels={"path": 'a\\b "quoted"\nline'},
    ).set(1)
    histogram = registry.histogram(
        "step_seconds", "Wall time of one step.", buckets=(0.001, 0.01, 0.1)
    )
    for value in (0.0005, 0.005, 0.005, 0.05, 2.0):
        histogram.observe(value)
    return registry


class TestGoldenFile:
    def test_output_matches_golden_byte_for_byte(self):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = handle.read()
        assert _representative_registry().to_prometheus() == golden


def _parse_exposition(text):
    """Minimal exposition parser: returns (help, type, samples) per family.

    Enforces, while parsing, the structural rules this test module pins:
    every line is a HELP/TYPE comment or a well-formed sample, HELP (if
    present) immediately precedes TYPE, and samples follow their TYPE.
    """
    families = {}
    current = None
    pending_help = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert _NAME_RE.fullmatch(name), line
            assert "\n" not in help_text  # escaped, by construction
            pending_help = (name, help_text)
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert _NAME_RE.fullmatch(name), line
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in families, f"duplicate TYPE for {name}"
            if pending_help is not None:
                assert pending_help[0] == name, (
                    f"HELP for {pending_help[0]} not followed by its TYPE"
                )
            families[name] = {
                "help": pending_help[1] if pending_help else None,
                "type": kind,
                "samples": [],
            }
            pending_help = None
            current = name
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparsable sample line: {line!r}"
        sample_name = match.group("name")
        assert current is not None, f"sample before any TYPE: {line!r}"
        base = sample_name
        if families[current]["type"] == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                if sample_name.endswith(suffix):
                    base = sample_name[: -len(suffix)]
                    break
        assert base == current, (
            f"sample {sample_name!r} under TYPE {current!r}"
        )
        labels = {}
        if match.group("labels"):
            body = match.group("labels")[1:-1]
            # Split on commas outside quotes.
            for pair in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', body):
                labels[pair[0]] = pair[1]
        families[current]["samples"].append(
            (sample_name, labels, match.group("value"))
        )
    return families


class TestLineGrammar:
    def test_representative_registry_parses_cleanly(self):
        families = _parse_exposition(
            _representative_registry().to_prometheus()
        )
        assert set(families) == {
            "labels_need_escaping",
            "process_cpu_seconds_total",
            "process_open_fds",
            "process_resident_memory_bytes",
            "run_steps_per_sec",
            "sim_steps_total",
            "step_seconds",
        }

    def test_families_are_sorted_and_contiguous(self):
        text = _representative_registry().to_prometheus()
        type_names = [
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert type_names == sorted(type_names)

    def test_label_values_are_escaped(self):
        text = _representative_registry().to_prometheus()
        (line,) = [
            candidate for candidate in text.splitlines()
            if candidate.startswith("labels_need_escaping{")
        ]
        assert '\\\\b' in line  # backslash escaped
        assert '\\"quoted\\"' in line  # quotes escaped
        assert "\\n" in line  # newline escaped
        # The raw newline never leaks into the sample line.
        assert "\n" not in line

    def test_help_text_is_escaped(self):
        text = _representative_registry().to_prometheus()
        (line,) = [
            candidate for candidate in text.splitlines()
            if candidate.startswith("# HELP labels_need_escaping")
        ]
        assert "\\\\" in line and "\\n" in line

    def test_histogram_buckets_cumulative_and_terminated(self):
        families = _parse_exposition(
            _representative_registry().to_prometheus()
        )
        samples = families["step_seconds"]["samples"]
        buckets = [
            (labels["le"], float(value))
            for name, labels, value in samples
            if name == "step_seconds_bucket"
        ]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][0] == "+Inf"
        (count_value,) = [
            float(value)
            for name, _, value in samples
            if name == "step_seconds_count"
        ]
        assert buckets[-1][1] == count_value, "+Inf bucket must equal _count"
        (sum_value,) = [
            float(value)
            for name, _, value in samples
            if name == "step_seconds_sum"
        ]
        assert sum_value == pytest.approx(2.0605)

    def test_empty_registry_exports_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_values_parse_as_floats(self):
        families = _parse_exposition(
            _representative_registry().to_prometheus()
        )
        for family in families.values():
            for _, _, value in family["samples"]:
                float(value.replace("+Inf", "inf"))


class TestNameValidation:
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


class TestRoundTrip:
    def test_live_metrics_endpoint_serves_current_registry_state(self):
        registry = MetricsRegistry()
        counter = registry.counter("scraped_total", "Scrapes observed.")
        server = ObservabilityServer(
            metrics_text=registry.to_prometheus, port=0
        )
        with server:
            counter.inc(3)
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5.0
            ) as response:
                first = response.read().decode("utf-8")
            counter.inc(4)
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5.0
            ) as response:
                second = response.read().decode("utf-8")
        families = _parse_exposition(first)
        assert families["scraped_total"]["samples"][0][2] == "3"
        families = _parse_exposition(second)
        # The endpoint reflects live registry state, not a start-time copy.
        assert families["scraped_total"]["samples"][0][2] == "7"
