"""TraceHook: structurally valid Perfetto traces from real runs."""

import json

import pytest

from repro.io import atomic_write_json
from repro.network import Simulator
from repro.telemetry import MetricsRegistry, TraceHook
from repro.workloads import build_workload

DT = 1e-4


def _spans_by_name(trace, category=None):
    """Span durations (µs) in the trace document, keyed by span name."""
    out = {}
    for event in trace.trace_json()["traceEvents"]:
        if event["ph"] == "X" and category in (None, event["cat"]):
            out.setdefault(event["name"], []).append(event["dur"])
    return out


@pytest.fixture(scope="module")
def brunel_trace():
    """A trace of a short Brunel run (the acceptance workload)."""
    network = build_workload("Brunel", scale=0.02, seed=3)
    trace = TraceHook()
    Simulator(network, dt=DT, seed=4).run(40, hooks=[trace])
    return network, trace


class TestTraceStructure:
    def test_document_is_valid_trace_event_json(self, brunel_trace):
        _, trace = brunel_trace
        doc = json.loads(json.dumps(trace.trace_json()))
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        phs = {event["ph"] for event in doc["traceEvents"]}
        assert phs == {"M", "X"}

    def test_complete_events_have_required_fields(self, brunel_trace):
        _, trace = brunel_trace
        spans = [e for e in trace.to_trace_events() if e["ph"] == "X"]
        assert spans
        for event in spans:
            assert set(event) >= {"name", "cat", "ph", "pid", "tid", "ts", "dur"}
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["args"]["step"] >= 0

    def test_every_phase_of_every_step_is_a_span(self, brunel_trace):
        _, trace = brunel_trace
        spans = [e for e in trace.to_trace_events() if e.get("cat") == "phase"]
        assert len(spans) == 40 * 3
        assert {e["name"] for e in spans} == {"stimulus", "neuron", "synapse"}

    def test_population_kernel_spans_on_named_tracks(self, brunel_trace):
        network, trace = brunel_trace
        events = trace.to_trace_events()
        kernels = [e for e in events if e.get("cat") == "kernel"]
        # One span per block per step: Brunel's exc and inh share a
        # model, so one ``advance`` call steps both.
        assert set(network.populations) == {"exc", "inh"}
        assert {e["name"] for e in kernels} == {"exc+inh"}
        assert len(kernels) == 40
        assert {e["args"]["operations"] for e in kernels} == {network.n_neurons}
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "pop:exc+inh" in thread_names
        # Kernel spans live on their own tracks, not the phase track.
        phase_tids = {e["tid"] for e in events if e.get("cat") == "phase"}
        kernel_tids = {e["tid"] for e in kernels}
        assert not (phase_tids & kernel_tids)

    def test_spans_nest_inside_their_neuron_phase(self, brunel_trace):
        """Kernel spans belong to, and fit inside, their step's neuron phase."""
        _, trace = brunel_trace
        events = trace.to_trace_events()
        neuron = {
            e["args"]["step"]: e
            for e in events
            if e.get("cat") == "phase" and e["name"] == "neuron"
        }
        kernel_dur = {}
        for event in events:
            if event.get("cat") != "kernel":
                continue
            phase = neuron[event["args"]["step"]]
            # The hook computes span start as dispatch-time minus duration,
            # so timestamps carry a little dispatch lag; durations do not.
            slack_us = 100.0
            assert event["ts"] >= phase["ts"] - slack_us
            assert event["ts"] + event["dur"] <= phase["ts"] + phase["dur"] + slack_us
            step = event["args"]["step"]
            kernel_dur[step] = kernel_dur.get(step, 0.0) + event["dur"]
        # Summed kernel time never exceeds the enclosing phase duration.
        for step, total in kernel_dur.items():
            assert total <= neuron[step]["dur"] + 0.01

    def test_save_round_trips_through_json(self, brunel_trace, tmp_path):
        # What ``repro run --trace`` writes: the document, atomically.
        _, trace = brunel_trace
        path = tmp_path / "trace.json"
        atomic_write_json(path, trace.trace_json(), indent=None)
        assert json.loads(path.read_text()) == trace.trace_json()


class TestRingBuffer:
    def test_ring_keeps_most_recent_events(self, small_network):
        # Four events a step: three phases and the one block's span.
        trace = TraceHook(max_events=40)
        Simulator(small_network, dt=DT, seed=3).run(50, hooks=[trace])
        assert trace.total_events == 200
        assert trace.dropped_events == 160
        spans = [e for e in trace.to_trace_events() if e["ph"] == "X"]
        assert len(spans) == 40
        # The survivors are the last 10 steps' worth of events.
        assert min(e["args"]["step"] for e in spans) == 40

    def test_dropped_count_in_document_metadata(self, small_network):
        trace = TraceHook(max_events=40)
        Simulator(small_network, dt=DT, seed=3).run(50, hooks=[trace])
        assert trace.trace_json()["otherData"]["dropped_events"] == 160

    def test_duration_helpers_group_by_name(self, small_network):
        trace = TraceHook()
        Simulator(small_network, dt=DT, seed=3).run(10, hooks=[trace])
        phases = _spans_by_name(trace, "phase")
        assert set(phases) == {"stimulus", "neuron", "synapse"}
        assert all(len(v) == 10 for v in phases.values())
        blocks = _spans_by_name(trace, "kernel")
        assert set(blocks) == {"exc+inh"}
        assert len(blocks["exc+inh"]) == 10


class TestTraceWithMetrics:
    def test_trace_and_registry_attach_together(self, small_network):
        trace = TraceHook()
        metrics = MetricsRegistry()
        result = Simulator(small_network, dt=DT, seed=3).run(
            20, hooks=[trace], metrics=metrics
        )
        assert result.metrics is not None
        hist = result.metrics["sim_step_seconds"]["values"][0]
        assert hist["count"] == 20
        assert len([e for e in trace.to_trace_events() if e["ph"] == "X"]) > 0
