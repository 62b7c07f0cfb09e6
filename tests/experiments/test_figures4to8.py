"""Tests for the Figures 4-8 trace regeneration harness."""

import numpy as np

from repro.experiments.figures4to8 import (
    ALL_FIGURES,
    figure4_membrane_decay,
    figure5_input_accumulation,
    figure6_spike_initiation,
    figure8_refractory,
    render,
    spike_count,
)


class TestTraces:
    def test_all_five_figures_present(self):
        assert set(ALL_FIGURES) == {
            "figure4", "figure5", "figure6", "figure7", "figure8",
        }

    def test_figure4_exponential_is_convex_linear_is_straight(self):
        traces = figure4_membrane_decay(steps=300)
        exd = np.asarray(traces["EXD (exponential)"])
        lid = np.asarray(traces["LID (linear)"])
        # Exponential decrements shrink; linear decrements are constant
        # until the clamp engages at rest.
        exd_decrement = -np.diff(exd[:200])
        assert exd_decrement[0] > exd_decrement[-1] > 0
        lid_decrement = -np.diff(lid[:200])
        np.testing.assert_allclose(
            lid_decrement, lid_decrement[0], atol=1e-6
        )

    def test_figure4_both_end_at_rest(self):
        traces = figure4_membrane_decay(steps=600)
        for trace in traces.values():
            assert abs(trace[-1]) < 0.05

    def test_figure5_kernel_peak_ordering(self):
        traces = figure5_input_accumulation(steps=400)
        assert np.argmax(traces["CUB (instant)"]) == 0
        assert (
            np.argmax(traces["COBE (exponential)"])
            < np.argmax(traces["COBA (alpha)"])
        )

    def test_figure6_instant_fires_first_step(self):
        traces = figure6_spike_initiation(steps=100)
        assert traces["instant (LIF)"][0] < 0.1

    def test_figure6_noninstant_trajectories_climb(self):
        # Unlike instant initiation (reset at step 0), the non-instant
        # drives push v *upward* from its start before the spike.
        traces = figure6_spike_initiation(steps=200)
        for key in ("QDI (quadratic)", "EXI (exponential)"):
            trace = np.asarray(traces[key])
            assert trace.max() > trace[0] + 0.05

    def test_figure8_refractory_cuts_rate(self):
        traces = figure8_refractory(steps=1500)
        base = spike_count(traces["no refractory"])
        assert spike_count(traces["AR (absolute)"]) < base
        assert spike_count(traces["RR (relative)"]) < base

    def test_spike_count_on_synthetic_trace(self):
        trace = [0.2, 0.95, 0.0, 0.3, 0.99, 0.05, 0.5]
        assert spike_count(trace) == 2

    def test_run_and_format(self):
        traces = {
            name: builder()
            for name, (builder, _) in list(ALL_FIGURES.items())[:1]
        }
        text = render(traces)
        assert "legend:" in text
        assert "Figure4" in text
