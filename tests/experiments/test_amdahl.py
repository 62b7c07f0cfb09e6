"""Tests for the end-to-end Amdahl analysis."""

import pytest

from repro.experiments.amdahl import AmdahlRow, evaluate, render, run
from repro.experiments.common import profile_workload


class TestAmdahlRow:
    def _row(self, total=100e-6, neuron=80e-6, array=1e-6):
        return AmdahlRow(
            workload="x",
            cpu_total_s=total,
            cpu_neuron_s=neuron,
            array_neuron_s=array,
        )

    def test_host_share(self):
        assert self._row().host_share == pytest.approx(0.2)

    def test_total_after_swaps_neuron_phase(self):
        row = self._row()
        assert row.total_after_s == pytest.approx(21e-6)

    def test_speedups(self):
        row = self._row()
        assert row.neuron_speedup == pytest.approx(80.0)
        assert row.end_to_end_speedup == pytest.approx(100 / 21)

    def test_amdahl_bound_caps_end_to_end(self):
        row = self._row()
        assert row.amdahl_bound == pytest.approx(5.0)
        assert row.end_to_end_speedup < row.amdahl_bound

    def test_faster_array_approaches_the_bound(self):
        slow = self._row(array=10e-6)
        fast = self._row(array=0.01e-6)
        assert slow.end_to_end_speedup < fast.end_to_end_speedup
        assert fast.end_to_end_speedup == pytest.approx(
            fast.amdahl_bound, rel=0.01
        )

    def test_fully_neuron_bound_bound_is_infinite(self):
        row = self._row(total=80e-6, neuron=80e-6)
        assert row.amdahl_bound == float("inf")


class TestEvaluateAndRun:
    def test_evaluate_real_workload(self):
        profile = profile_workload("Vogels-Abbott", scale=0.02, steps=100)
        row = evaluate(profile)
        assert row.end_to_end_speedup > 1.0
        assert row.neuron_speedup > row.end_to_end_speedup
        assert row.end_to_end_speedup <= row.amdahl_bound * 1.0001

    def test_run_subset_and_format(self):
        rows = run(scale=0.02, steps=100, names=["Brunel", "Vogels-Abbott"])
        assert len(rows) == 2
        text = render(rows)
        assert "Amdahl bound" in text
        assert "geomean end-to-end speedup" in text

    def test_neuron_bound_workload_gains_more(self):
        rows = {
            row.workload: row
            for row in run(
                scale=0.02, steps=100, names=["Brunel", "Vogels-Abbott"]
            )
        }
        # RKF45 Vogels-Abbott is neuron-bound; Euler Brunel is
        # synapse-bound: the end-to-end gains must reflect Figure 3.
        assert (
            rows["Vogels-Abbott"].end_to_end_speedup
            > rows["Brunel"].end_to_end_speedup
        )
