"""Property-based tests for the run ledger."""

from hypothesis import given, settings, strategies as st

from repro.provenance import append_entry, load_ledger, make_entry


def _entry(run_id):
    return make_entry(
        "run", run_id, {"seed": 3},
        workload="Brunel", backend="reference", steps=10,
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
