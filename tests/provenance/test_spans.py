"""SpanRecorder rings, sidecar dual exit path, and the phase hook."""

import json
import os

from repro.provenance import SpanRecorder, TraceContext
from repro.provenance.spans import SPANS_SCHEMA, PhaseSpanHook


class TestRing:
    def test_record_returns_the_span(self):
        recorder = SpanRecorder()
        span = recorder.record("window e0", "window", ts=10.0, dur=0.5)
        assert span == {
            "name": "window e0", "cat": "window", "ts": 10.0, "dur": 0.5,
        }

    def test_optional_keys_only_when_set(self):
        recorder = SpanRecorder()
        span = recorder.record(
            "exchange e1", "exchange", 1.0, 0.1, args={"epoch": 1},
        )
        assert span["args"] == {"epoch": 1}
        bare = recorder.record("bare", "phase", 2.0, 0.1)
        assert "args" not in bare

    def test_ring_evicts_oldest_and_counts_drops(self):
        recorder = SpanRecorder(max_spans=3)
        for index in range(5):
            recorder.record(f"s{index}", "phase", float(index), 0.1)
        assert [span["name"] for span in recorder.spans] == [
            "s2", "s3", "s4",
        ]
        assert recorder.total_spans == 5
        assert recorder.dropped_spans == 2

    def test_dump_carries_schema_pid_and_context(self):
        context = TraceContext(run_id="run-z", job_id="Brunel", attempt=2)
        recorder = SpanRecorder(context)
        recorder.record("a", "phase", 0.0, 0.1)
        dump = recorder.dump()
        assert dump["schema"] == SPANS_SCHEMA == "repro-spans/1"
        assert dump["pid"] == os.getpid()
        assert dump["context"]["run_id"] == "run-z"
        assert dump["context"]["job_id"] == "Brunel"
        assert len(dump["spans"]) == 1
        json.dumps(dump)  # pipe/JSON-safe


class TestSidecar:
    def test_sync_writes_and_load_dump_reads(self, tmp_path):
        path = str(tmp_path / "ring.spans.json")
        recorder = SpanRecorder(
            TraceContext(run_id="run-s"), sidecar_path=path
        )
        recorder.record("a", "phase", 1.0, 0.2)
        recorder.sync(force=True)
        dump = SpanRecorder.load_dump(path)
        assert dump is not None
        assert dump["context"]["run_id"] == "run-s"
        assert dump["spans"][0]["name"] == "a"

    def test_sync_is_throttled_without_force(self, tmp_path):
        path = str(tmp_path / "ring.spans.json")
        recorder = SpanRecorder(sidecar_path=path, sync_interval=3600.0)
        recorder.record("a", "phase", 1.0, 0.2)
        recorder.sync(force=True)
        recorder.record("b", "phase", 2.0, 0.2)
        recorder.sync()  # throttled: within the interval
        assert len(SpanRecorder.load_dump(path)["spans"]) == 1
        recorder.sync(force=True)
        assert len(SpanRecorder.load_dump(path)["spans"]) == 2

    def test_sync_without_sidecar_is_a_noop(self):
        SpanRecorder().sync(force=True)  # must not raise

    def test_load_dump_missing_file(self, tmp_path):
        assert SpanRecorder.load_dump(str(tmp_path / "absent.json")) is None

    def test_load_dump_rejects_torn_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": "repro-spans/1", "spans": [')
        assert SpanRecorder.load_dump(str(path)) is None

    def test_load_dump_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"schema": "repro-flight/1"}))
        assert SpanRecorder.load_dump(str(path)) is None


class TestPhaseSpanHook:
    def test_phases_become_spans(self):
        recorder = SpanRecorder()
        hook = PhaseSpanHook(recorder)
        hook.on_phase("neuron", step=7, seconds=0.25, operations=100)
        (span,) = recorder.spans
        assert span["name"] == "neuron"
        assert span["cat"] == "phase"
        assert span["dur"] == 0.25
        assert span["args"] == {"step": 7}

    def test_population_spans_stay_opt_in(self):
        # Kernel spans are TraceHook's job; the provenance ring must
        # not override on_population, or the simulator would start
        # paying the per-population clock reads on every sharded run.
        from repro.engine.hooks import PhaseHook

        assert PhaseSpanHook.on_population is PhaseHook.on_population
