"""Recorder sampling intervals and SimulationResult edge cases."""

import numpy as np
import pytest

from repro.engine.hooks import PhaseStats
from repro.network import (
    PHASES,
    SimulationResult,
    Simulator,
    SpikeRecorder,
    StateRecorder,
)

DT = 1e-4


def offer(recorder, n, size=4):
    for step in range(n):
        recorder.sample({"v": np.full(size, float(step)), "u": np.zeros(size)})


class TestStateRecorderIntervals:
    def test_default_interval_keeps_every_sample(self):
        recorder = StateRecorder("exc", ["v"], neurons=[0, 2])
        offer(recorder, 10)
        assert recorder.samples_offered == 10
        assert recorder.samples_kept() == 10
        assert recorder.trace("v").shape == (10, 2)

    def test_every_three_keeps_first_of_each_window(self):
        recorder = StateRecorder("exc", ["v"], neurons=[0], every=3)
        offer(recorder, 10)
        # Offered samples 0..9; kept at 0, 3, 6, 9.
        assert recorder.samples_offered == 10
        assert recorder.samples_kept() == 4
        assert recorder.trace("v")[:, 0].tolist() == [0.0, 3.0, 6.0, 9.0]

    def test_interval_larger_than_run_keeps_first_sample_only(self):
        recorder = StateRecorder("exc", ["v"], every=100)
        offer(recorder, 7)
        assert recorder.samples_kept() == 1
        assert recorder.trace("v")[0, 0] == 0.0

    def test_interval_applies_across_multiple_variables(self):
        recorder = StateRecorder("exc", ["v", "u"], every=2)
        offer(recorder, 5)
        assert recorder.trace("v").shape == recorder.trace("u").shape == (3, 1)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            StateRecorder("exc", ["v"], every=0)
        with pytest.raises(ValueError):
            StateRecorder("exc", ["v"], every=-2)

    def test_empty_recorder_reports_zero_kept(self):
        recorder = StateRecorder("exc", ["v"])
        assert recorder.samples_kept() == 0
        assert recorder.trace("v").shape == (0, 1)

    def test_simulator_honours_sampling_interval(self, small_network):
        coarse = StateRecorder("exc", ["v"], neurons=[0], every=4)
        fine = StateRecorder("exc", ["v"], neurons=[0])
        Simulator(small_network, dt=DT, seed=3).run(
            20, state_recorders=[coarse, fine]
        )
        assert fine.samples_kept() == 20
        assert coarse.samples_kept() == 5
        # The coarse trace is the fine trace downsampled.
        np.testing.assert_allclose(
            coarse.trace("v")[:, 0], fine.trace("v")[::4, 0]
        )


class TestSpikeRecorder:
    def test_record_mask_and_indices_agree(self):
        by_mask, by_idx = SpikeRecorder(), SpikeRecorder()
        mask = np.array([True, False, True, False])
        by_mask.record("exc", 3, mask)
        by_idx.record_indices("exc", 3, np.nonzero(mask)[0])
        assert by_mask.result("exc").spike_pairs() == {(3, 0), (3, 2)}
        assert by_mask.result("exc").spike_pairs() == by_idx.result(
            "exc"
        ).spike_pairs()

    def test_unseen_population_yields_empty_record(self):
        record = SpikeRecorder().result("ghost")
        assert record.n_spikes == 0
        assert record.spikes_of(0).size == 0
        assert record.rate_hz(10, 100, DT) == 0.0

    def test_snapshot_load_round_trip(self):
        recorder = SpikeRecorder()
        recorder.record_indices("exc", 1, np.array([0, 3]))
        recorder.record_indices("inh", 2, np.array([1]))
        restored = SpikeRecorder()
        restored.load(recorder.snapshot())
        assert restored.total_spikes() == 3
        assert restored.populations() == ["exc", "inh"]
        restored.record_indices("exc", 5, np.array([2]))
        assert restored.result("exc").spike_pairs() == {(1, 0), (1, 3), (5, 2)}


def make_result(phases):
    return SimulationResult(
        network_name="t",
        backend_name="b",
        n_steps=0,
        dt=DT,
        spikes=SpikeRecorder(),
        phases=phases,
    )


class TestPhaseFractions:
    def test_zero_duration_run_reports_all_zero_fractions(self):
        result = make_result(
            {phase: PhaseStats(seconds=0.0, operations=0) for phase in PHASES}
        )
        fractions = result.phase_fractions()
        assert set(fractions) == set(PHASES)
        assert all(value == 0.0 for value in fractions.values())

    def test_missing_phase_still_present_with_zero_fraction(self):
        result = make_result({"neuron": PhaseStats(seconds=2.0, operations=10)})
        fractions = result.phase_fractions()
        assert set(fractions) == set(PHASES)
        assert fractions["neuron"] == 1.0
        assert fractions["stimulus"] == 0.0
        assert fractions["synapse"] == 0.0

    def test_empty_phases_dict_reports_all_zero(self):
        fractions = make_result({}).phase_fractions()
        assert set(fractions) == set(PHASES)
        assert sum(fractions.values()) == 0.0

    def test_real_run_fractions_sum_to_one(self, small_network):
        result = Simulator(small_network, dt=DT, seed=3).run(10)
        fractions = result.phase_fractions()
        assert set(fractions) == set(PHASES)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_stats_dict_is_json_shaped(self, small_network):
        import json

        result = Simulator(small_network, dt=DT, seed=3).run(10)
        doc = result.to_stats_dict()
        assert doc["schema"] == "repro-run-stats/3"
        assert set(doc) == {
            "schema", "network", "backend", "n_steps", "dt",
            "total_seconds", "recording_seconds", "phases",
            "phase_fractions", "counters", "spike_digest",
            "spikes_per_population", "evaluations_per_step", "diagnostics",
            "hook_errors", "metrics",
        }
        assert doc["n_steps"] == 10
        assert set(doc["phase_fractions"]) == set(PHASES)
        assert doc["counters"]["total_spikes"] == result.total_spikes()
        assert doc["hook_errors"] == []
        json.dumps(doc)
