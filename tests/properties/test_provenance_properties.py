"""Property-based tests for trace merging and the run ledger."""

import json

from hypothesis import given, settings, strategies as st

from repro.provenance import (
    ProcessRing,
    append_entry,
    estimate_offset,
    load_ledger,
    make_entry,
    merge_rings,
)

# A synthetic span ring: spans arrive in arbitrary order (worker rings
# are appended live, but retries restart the clock) with arbitrary
# durations; a killed worker just means the ring stops early, which
# the strategy models by drawing any length including zero.
span_lists = st.lists(
    st.tuples(
        # Dyadic timestamps (n/8 s) keep float arithmetic exact, so
        # the shift-invariance property below is not at the mercy of
        # rounding creating new timestamp ties.
        st.integers(min_value=0, max_value=80_000).map(lambda n: n / 8),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    max_size=20,
).map(
    lambda pairs: [
        {"name": f"s{index}", "cat": "phase", "ts": ts, "dur": dur}
        for index, (ts, dur) in enumerate(pairs)
    ]
)

rings = st.builds(
    ProcessRing,
    label=st.sampled_from(["coordinator", "shard0#a0", "shard1#a2"]),
    pid=st.integers(min_value=1, max_value=1 << 20),
    offset=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    spans=span_lists,
    dropped=st.integers(min_value=0, max_value=100),
)


class TestMergeProperties:
    @given(st.lists(rings, max_size=5))
    @settings(max_examples=50)
    def test_per_track_timestamps_are_monotone(self, ring_list):
        document = merge_rings(ring_list, run_id="run-p")
        by_tid = {}
        for event in document["traceEvents"]:
            if event["ph"] == "X":
                by_tid.setdefault(event["tid"], []).append(event["ts"])
        for timestamps in by_tid.values():
            assert timestamps == sorted(timestamps)

    @given(st.lists(rings, max_size=5))
    @settings(max_examples=50)
    def test_one_track_per_ring_and_json_safe(self, ring_list):
        document = merge_rings(ring_list)
        tracks = [
            event for event in document["traceEvents"]
            if event["name"] == "thread_name"
        ]
        assert len(tracks) == len(ring_list)
        assert document["otherData"]["n_tracks"] == len(ring_list)
        json.dumps(document)

    @given(rings, st.integers(min_value=-500, max_value=500))
    @settings(max_examples=50)
    def test_correction_cancels_a_uniform_clock_shift(self, ring, shift):
        # Shifting a worker's clock AND its estimated offset by the
        # same amount must leave the merged trace bit-identical: the
        # correction subtracts exactly what the skew added. The shift
        # is a whole number of seconds so float addition stays exact
        # and cannot create new timestamp ties.
        shifted = ProcessRing(
            label=ring.label,
            pid=ring.pid,
            offset=ring.offset + shift,
            spans=[dict(span, ts=span["ts"] + shift) for span in ring.spans],
            dropped=ring.dropped,
        )
        # otherData deliberately records the raw offsets for debugging,
        # so only the rendered events must match.
        merged = merge_rings([ring])
        assert merged["traceEvents"] == merge_rings([shifted])["traceEvents"]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            max_size=10,
        )
    )
    def test_estimate_offset_is_the_max_sample_bound(self, samples):
        offset = estimate_offset(samples)
        if not samples:
            assert offset == 0.0
        else:
            assert offset == max(sent - received for sent, received in samples)


def _entry(run_id):
    return make_entry(
        "run", run_id, {"seed": 3},
        workload="Brunel", backend="reference", shards=0, steps=10,
        scale=0.05, seed=3, dt=1e-4, spike_digest="d" * 64,
        outcome="completed", duration=0.1,
    )


class TestLedgerTornTail:
    @given(
        n_entries=st.integers(min_value=1, max_value=5),
        cut=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=30, deadline=None)
    def test_truncation_loses_only_the_damaged_line(
        self, tmp_path_factory, n_entries, cut
    ):
        path = str(tmp_path_factory.mktemp("ledger") / "ledger.jsonl")
        for index in range(n_entries):
            append_entry(path, _entry(f"run-{index}"))
        with open(path, "rb") as handle:
            raw = handle.read()
        # Tear the tail mid-line, as a crash during append would.
        kept = raw[: max(0, len(raw) - cut)]
        with open(path, "wb") as handle:
            handle.write(kept)
        # A line survives iff its full content (newline optional — a
        # cut that only eats the trailing "\n" leaves it parseable)
        # fits in the kept prefix; the damaged line must be dropped,
        # not half-parsed.
        expected, position = 0, 0
        for line in raw.split(b"\n")[:-1]:
            if position + len(line) <= len(kept):
                expected += 1
            position += len(line) + 1
        entries = load_ledger(path)
        assert len(entries) == expected
        for index, entry in enumerate(entries):
            assert entry["run_id"] == f"run-{index}"
