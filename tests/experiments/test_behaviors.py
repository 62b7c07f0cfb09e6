"""Tests: the neuronal behaviour regimes emerge on Flexon hardware."""

import numpy as np
import pytest

from repro.experiments.behaviors import (
    PRESETS,
    burstiness,
    rate_curve,
)


@pytest.fixture(scope="module")
def spikes(artefact_rows):
    # The behaviors artefact's trains; class-1 excitability is swept
    # separately.
    return artefact_rows("behaviors")


class TestRegimes:
    def test_tonic_spiking_is_regular(self, spikes):
        intervals = np.diff(spikes["tonic spiking"])
        assert len(intervals) > 10
        assert intervals.std() / intervals.mean() < 0.05

    def test_phasic_spiking_fires_only_at_onset(self, spikes):
        train = spikes["phasic spiking"]
        assert 1 <= len(train) <= 10
        assert max(train) < 1500  # silent for the last 450 ms

    def test_adaptation_stretches_intervals(self, spikes):
        intervals = np.diff(spikes["spike-frequency adaptation"])
        assert len(intervals) >= 4
        assert intervals[-1] > 1.5 * intervals[0]

    def test_mixed_mode_bursts_then_settles(self, spikes):
        train = spikes["mixed mode"]
        intervals = np.diff(train)
        # Onset burst: the first ISIs are short...
        assert intervals[0] < 60 and intervals[1] < 60
        # ...then the neuron settles into slow tonic singles.
        assert intervals[-1] > 1000
        assert burstiness(train) > 1.0

    def test_refractory_ceiling_caps_rate(self, spikes):
        train = spikes["refractory ceiling"]
        # 10 ms dead time -> at most ~100 Hz regardless of the huge
        # drive; allow one-step slack per cycle.
        duration = PRESETS["refractory ceiling"].steps * 1e-4
        assert len(train) / duration <= 1.05 * (1 / 10e-3)
        assert np.diff(train).min() >= 100  # >= t_ref in steps

    def test_class1_fi_curve_is_continuous_and_monotone(self):
        # COBE integrates the drive into a standing conductance of
        # drive / eps_g = 50x, so the interesting f-I range is small.
        preset = PRESETS["class-1 excitability"]
        drives = [0.0, 0.004, 0.008, 0.012, 0.016, 0.02, 0.03]
        rates = rate_curve(preset, drives)
        assert rates[0] == 0.0
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        # Class 1: arbitrarily low nonzero rates near threshold
        # (no sudden jump to a high rate).
        nonzero = [r for r in rates if r > 0]
        assert nonzero and nonzero[0] < 40.0
        assert rates[-1] > 2 * nonzero[0]


class TestHelpers:
    def test_burstiness_of_empty_train(self):
        assert burstiness([]) == 0.0

    def test_burstiness_counts_clusters(self):
        # Two clusters of 3 and 2 spikes.
        train = [0, 10, 20, 500, 520]
        assert burstiness(train, gap_steps=50) == pytest.approx(2.5)

    def test_burstiness_of_regular_train_is_one(self):
        train = list(range(0, 2000, 200))
        assert burstiness(train, gap_steps=50) == 1.0
