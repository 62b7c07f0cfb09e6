"""The ``repro profile`` harness: payload shape and the overhead budget."""

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.profile import (
    DEFAULT_WORKLOADS,
    PROFILE_SCHEMA,
    format_profile,
    profile_workload,
    run_profile,
    write_profile,
)


@pytest.fixture(scope="module")
def quick_payload(tmp_path_factory):
    """One small profile over the three default registry workloads."""
    trace_path = tmp_path_factory.mktemp("profile") / "trace.json"
    return (
        run_profile(
            workloads=DEFAULT_WORKLOADS,
            steps=40,
            scale=0.02,
            reps=2,
            trace_path=str(trace_path),
        ),
        trace_path,
    )


class TestProfilePayload:
    def test_covers_three_workloads_with_phase_percentiles(self, quick_payload):
        payload, _ = quick_payload
        assert payload["schema"] == PROFILE_SCHEMA
        assert len(payload["workloads"]) >= 3
        for entry in payload["workloads"].values():
            assert set(entry["phases"]) == {"stimulus", "neuron", "synapse"}
            for stats in entry["phases"].values():
                assert stats["p95_us"] >= stats["p50_us"] >= 0.0
                assert stats["ops_per_sec"] >= 0.0
            assert entry["populations"]
            for stats in entry["populations"].values():
                assert stats["p95_us"] >= stats["p50_us"] >= 0.0
                assert stats["neurons"] > 0
            # Rows are kernel spans, one per block: each names its
            # members, and together they hold every neuron once.
            assert sum(
                stats["neurons"] for stats in entry["populations"].values()
            ) == entry["neurons"]
            for name, stats in entry["populations"].items():
                assert name == "+".join(stats["members"])
        assert set(payload["workloads"]["Brunel"]["populations"]) == {"exc+inh"}
        # The ring holds one rep exactly: 3 phase events + 1 block span
        # per step, over the warm-up and two instrumented reps.
        brunel = payload["workloads"]["Brunel"]
        assert brunel["trace_events"] == 3 * 40 * 4
        assert brunel["trace_dropped_events"] == 2 * 40 * 4

    def test_steps_per_sec_and_reps_recorded(self, quick_payload):
        payload, _ = quick_payload
        for entry in payload["workloads"].values():
            assert entry["steps_per_sec"]["bare"] > 0
            assert entry["steps_per_sec"]["instrumented"] > 0
            assert len(entry["reps"]["bare"]) == 2
            assert len(entry["reps"]["instrumented"]) == 2
        assert payload["max_overhead_delta"] == max(
            entry["overhead_delta"] for entry in payload["workloads"].values()
        )

    def test_shares_bench_engine_top_level_shape(self, quick_payload):
        payload, _ = quick_payload
        # The conditions a profile was taken under ride beside its entries.
        assert {"dt", "steps", "scale", "python", "machine", "workloads"} <= set(
            payload
        )

    def test_sample_trace_saved_for_first_workload(self, quick_payload):
        _, trace_path = quick_payload
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["network"] == "Brunel"

    def test_write_profile_round_trips(self, quick_payload, tmp_path):
        payload, _ = quick_payload
        out = tmp_path / "BENCH_profile.json"
        write_profile(payload, out)
        assert json.loads(out.read_text()) == payload

    def test_format_profile_mentions_budget(self, quick_payload):
        payload, _ = quick_payload
        text = format_profile(payload)
        assert "overhead" in text
        assert "budget: < 5%" in text
        for name in payload["workloads"]:
            assert name in text


class TestProfileValidation:
    def test_bad_steps_and_reps_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_workload("Brunel", steps=0)
        with pytest.raises(ConfigurationError):
            profile_workload("Brunel", reps=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_workload("Brunel", backend="verilog", steps=1, reps=1)


class TestOverheadBudget:
    def test_izhikevich_overhead_below_five_percent(self):
        """Acceptance: full telemetry costs < 5% steps/sec on Izhikevich.

        Uses the profile command's own self-reported delta. Telemetry
        costs a fixed ~4 events/step, so the budget is asserted at a
        scale where a step does substantial integration work (scale
        0.3, 3000 neurons) — the regime long telemetered runs care
        about; at toy scales the same fixed cost is measured against a
        nearly empty step. Extra reps let the best-of estimator
        converge, and shared CI machines are noisy, so retry before
        failing.

        2026-10-02 (PR 17): the stimulus plan made this step 1.75x
        cheaper (185 -> 105 us), so the same ~4.5 us of telemetry is
        0.04 of it instead of 0.023 and a single best-of-8 estimate
        (inter-quartile range ~0.06 on a contended host) crossed 0.05
        on half the attempts: three attempts failed 3 runs in 15 (the
        parent 1 in 15). Same budget, same scale; 16 reps and five
        attempts failed 0 in 15 in the same alternation, six are allowed.

        2026-10-05 (PR 21): each attempt threw its 16 reps away, and on
        an idle host nine fresh single estimates still read 0.015-0.066
        (three >= 0.05) where a best-of-30 read 0.036 (99.9 -> 103.5
        us/step); ISSUE 21's prototype tier-1 run failed all six. The
        estimator is "fastest bare vs fastest instrumented", which only
        sharpens with samples, so the attempts now pool theirs: the
        delta is taken over every rep so far. Same budget, scale, reps
        and at most six attempts.
        """
        bare, instrumented = [], []
        for attempt in range(6):
            entry = profile_workload(
                "Izhikevich", steps=240, scale=0.3, reps=16, seed=7
            )
            bare += entry["reps"]["bare"]
            instrumented += entry["reps"]["instrumented"]
            delta = 1.0 - max(instrumented) / max(bare)
            if delta < 0.05:
                break
            time.sleep(2.0)
        assert delta < 0.05, (max(bare), max(instrumented), attempt + 1)
