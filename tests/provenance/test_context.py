"""TraceContext: the correlation block on the worker-init wire."""

from repro.provenance import TraceContext


class TestPayloadRoundTrip:
    def test_full_round_trip(self):
        context = TraceContext(
            run_id="run-abc123",
            job_id="Brunel",
            attempt=2,
            parent_span="job:Brunel#a2",
        )
        rebuilt = TraceContext.from_payload(context.to_payload())
        assert rebuilt == context

    def test_missing_payload_tolerated(self):
        context = TraceContext.from_payload(None)
        assert context.run_id == ""
        assert context.attempt == 0

    def test_partial_payload_tolerated(self):
        context = TraceContext.from_payload({"run_id": "run-y"})
        assert context.run_id == "run-y"
        assert context.job_id is None
        assert context.parent_span is None


class TestTrackLabel:
    def test_job_label(self):
        label = TraceContext("r", job_id="Vogels", attempt=2).track_label
        assert label == "worker:Vogels#a2"

    def test_anonymous_label(self):
        assert TraceContext("r").track_label == "worker#a0"
