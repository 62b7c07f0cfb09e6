"""The paper suite: every artefact's shape, and its committed bytes.

Each artefact's rows come from the session's ``artefact_rows`` fixture,
at the parameters its committed file was made with. The shape tests
assert what the paper reports on those rows; the byte test holds the
rendered text to ``artefacts/NAME.txt``, the file ``python -m repro
experiment NAME`` prints. Table III, Table V, Figure 12 and Table VI's
shapes are in ``test_experiments.py``, the behaviour regimes in
``test_behaviors.py``, on the same rows.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ARTEFACTS, artefact, validation
from repro.experiments.figure13 import geomean_efficiency, geomean_speedups
from repro.experiments.figures4to8 import spike_count
from repro.hardware import compiler
from repro.workloads import workload_names

ARTEFACT_DIR = Path(__file__).parent / "artefacts"


@pytest.mark.parametrize("name", list(ARTEFACTS))
def test_artefact_matches_its_committed_file(name, artefact_rows):
    # Refresh a file that should change with
    # python -m repro experiment NAME > tests/experiments/artefacts/NAME.txt
    text = artefact(name).render(artefact_rows(name)) + "\n"
    committed = (ARTEFACT_DIR / f"{name}.txt").read_bytes()
    assert text.encode("utf-8") == committed, name


def test_figure3_breakdown(artefact_rows):
    rows = artefact_rows("figure3")
    # Paper shape: RKF45 CPU workloads are neuron-computation bound.
    by_key = {(r.workload, r.platform): r for r in rows}
    assert by_key[("Vogels et al.", "CPU")].neuron_fraction > 0.5
    assert by_key[("Brette et al.", "CPU")].neuron_fraction > 0.5
    # Euler keeps the share below the same-model RKF45 rows ("Employing
    # Euler method instead of RKF45 (e.g., Brunel) reduces the
    # proportion of neuron computation").
    assert (
        by_key[("Brunel", "CPU")].neuron_fraction
        < by_key[("Vogels-Abbott", "CPU")].neuron_fraction
    )
    assert by_key[("Izhikevich", "CPU")].neuron_fraction < 0.5
    assert by_key[("Potjans-Diesmann", "CPU")].neuron_fraction < 0.5
    # The GPU keeps neuron computation material but not dominant.
    for name in workload_names():
        assert 0.05 < by_key[(name, "GPU")].neuron_fraction < 0.6


def test_figures4_to_8(artefact_rows):
    traces = artefact_rows("figures4to8")

    # Figure 4: EXD decays with shrinking increments, LID constantly.
    exd = np.asarray(traces["figure4"]["EXD (exponential)"])
    lid = np.asarray(traces["figure4"]["LID (linear)"])
    exd_steps = -np.diff(exd[:200])
    lid_steps = -np.diff(lid[:200])
    assert exd_steps[0] > exd_steps[-1] > 0
    assert np.allclose(lid_steps, lid_steps[0], atol=1e-6)

    # Figure 5: peak response arrives later for COBE, later still COBA.
    f5 = traces["figure5"]
    assert np.argmax(f5["CUB (instant)"]) < np.argmax(f5["COBE (exponential)"])
    assert np.argmax(f5["COBE (exponential)"]) < np.argmax(f5["COBA (alpha)"])

    # Figure 6: instant initiation fires immediately; QDI/EXI ramp
    # upward on their own before firing.
    f6 = traces["figure6"]
    assert f6["instant (LIF)"][0] < 0.1  # fired and reset at step 0
    qdi = np.asarray(f6["QDI (quadratic)"])
    assert qdi[:5].max() < qdi[5:60].max()  # still climbing after start

    # Figure 7: adaptation reduces the firing rate vs plain LIF; SBT
    # settles near the oscillation level rather than resting at zero.
    f7 = traces["figure7"]
    assert spike_count(f7["ADT (adaptation)"]) < spike_count(f7["plain LIF"])
    assert 0.2 < np.mean(f7["SBT (oscillation, no input)"][-500:]) < 0.6

    # Figure 8: both refractory kinds cut the firing rate under the
    # same strong drive (which cuts harder depends on the constants).
    f8 = traces["figure8"]
    base = spike_count(f8["no refractory"])
    ar = spike_count(f8["AR (absolute)"])
    rr = spike_count(f8["RR (relative)"])
    assert ar < base
    assert rr < base


def test_figure13_speedups_and_efficiency(artefact_rows):
    rows = artefact_rows("figure13")

    # Every workload: both arrays beat both hosts.
    for row in rows:
        speedups = row.speedups()
        assert speedups["flexon_vs_cpu"] > 5, row.workload
        assert speedups["flexon_vs_gpu"] > 1, row.workload
        assert speedups["folded_vs_cpu"] > 5, row.workload

    # The Destexhe crossover (Section VI-C): the single-cycle design
    # wins exactly where the AdEx microprograms are long.
    for row in rows:
        speedups = row.speedups()
        if row.workload.startswith("Destexhe"):
            assert speedups["flexon_vs_cpu"] > speedups["folded_vs_cpu"]

    # Folded wins latency on the clear majority of workloads.
    folded_wins = sum(
        1
        for row in rows
        if row.speedups()["folded_vs_cpu"] > row.speedups()["flexon_vs_cpu"]
    )
    assert folded_wins >= 7

    # Geomeans in the paper's bands (order-of-magnitude fidelity).
    speed = geomean_speedups(rows)
    assert 40 <= speed["flexon_vs_cpu"] <= 180  # paper 87.4x
    assert 50 <= speed["folded_vs_cpu"] <= 250  # paper 122.5x
    assert speed["folded_vs_cpu"] > speed["flexon_vs_cpu"]
    assert 2 <= speed["flexon_vs_gpu"] <= 20  # paper 8.19x

    efficiency = geomean_efficiency(rows)
    assert 3_000 <= efficiency["flexon_vs_cpu"] <= 15_000  # paper 6186x
    assert 3_000 <= efficiency["folded_vs_cpu"] <= 15_000  # paper 5415x
    # The single-cycle design wins energy efficiency (Section VI-C).
    assert efficiency["flexon_vs_cpu"] > efficiency["folded_vs_cpu"]


def test_section6a_validation(artefact_rows):
    rows = artefact_rows("validation")
    assert len(rows) == 10
    # The two designs are bit-identical on every workload.
    assert all(row.designs_identical for row in rows)
    # Population statistics survive fixed point.
    assert all(row.count_agreement >= 0.85 for row in rows)
    # Before chaotic divergence compounds, trains coincide: every spike
    # but a few pairs with one on the same neuron at most one step away.
    # (The exact-step Jaccard, early_overlap, stays in the table; Flexon
    # firing one step after float drops it to 0.33-0.75 on
    # Destexhe-UpDown over seeds 1-8, while this reads >= 0.96 on every
    # workload and seed.)
    assert all(row.early_coincidence >= 0.9 for row in rows)


def test_section6a_rows_move_on_a_one_lsb_constant(artefact_rows, monkeypatch):
    # The +/-1-step coincidence cannot see a one-LSB constant error (the
    # truncating datapath drifts further than that); the committed bytes
    # can: one LSB more on the membrane decay moves a Brunel spike.
    committed = next(
        row for row in artefact_rows("validation") if row.workload == "Brunel"
    )
    prepare = compiler.prepare_constants

    def one_lsb_more(*args):
        constants = prepare(*args)
        return replace(constants, eps_m_c=constants.eps_m_c + 1)

    monkeypatch.setattr(compiler, "prepare_constants", one_lsb_more)
    perturbed = validation.validate_workload("Brunel")
    assert perturbed.flexon_spikes != committed.flexon_spikes
    assert validation.render([perturbed]) != validation.render([committed])


def test_end_to_end_amdahl(artefact_rows):
    rows = artefact_rows("amdahl")
    by_name = {row.workload: row for row in rows}

    for row in rows:
        # End-to-end gains never exceed the Amdahl bound, and the
        # neuron-phase speedup always exceeds the end-to-end one.
        assert row.end_to_end_speedup <= row.amdahl_bound * 1.0001
        assert row.neuron_speedup > row.end_to_end_speedup
        assert row.end_to_end_speedup > 1.0

    # Neuron-bound RKF45 workloads gain far more end to end than the
    # synapse-bound Euler ones — the Figure 3 motivation, quantified.
    assert (
        by_name["Destexhe-UpDown"].end_to_end_speedup
        > 3 * by_name["Izhikevich"].end_to_end_speedup
    )


def test_event_driven_energy_saving(artefact_rows):
    activity = artefact_rows("event_driven")
    # Sparser input -> lower activity factor, monotonically.
    factors = [activity[p] for p in sorted(activity)]
    assert factors == sorted(factors)
    assert factors[0] < 0.5  # very sparse nets mostly idle
    assert factors[-1] > factors[0]


def test_stdp_pattern_learning(artefact_rows):
    pattern_w, noise_w = artefact_rows("stdp_learning")
    # After 1.5 s the pattern channels dominate the noise channels.
    assert pattern_w > noise_w
    assert noise_w < 4.0
    assert pattern_w / max(noise_w, 1e-9) > 1.5


def test_fast_exp_ablation(artefact_rows):
    result = artefact_rows("ablation_exp")
    # Schraudolph's published worst case (~4%) with margin.
    assert result.worst < 0.05
    # The approximation "does not affect our SNN simulation results".
    assert result.agreement >= 0.98


def test_fixedpoint_width_ablation(artefact_rows):
    agreements = artefact_rows("ablation_fixedpoint")
    # The paper's 22-bit fraction is effectively lossless; very narrow
    # fractions visibly degrade (eps_m = 0.005 needs ~8+ bits alone).
    assert agreements[22] >= 0.99
    assert agreements[28] >= 0.99
    assert agreements[8] < agreements[22]


def test_folding_crossover(artefact_rows):
    n_folded, rows = artefact_rows("ablation_folding")
    # The equal-area folded array holds ~5-6x the neurons.
    assert 60 <= n_folded <= 76
    ratios = [float(row[3]) for row in rows]
    # Short programs: folded wins clearly; very long programs: the
    # single-cycle baseline wins — the Destexhe regime.
    assert ratios[0] < 0.8
    assert ratios[-1] > 1.0
    # Monotone: each extra signal costs the folded array throughput.
    assert ratios == sorted(ratios)


def test_synapse_type_ablation(artefact_rows):
    rows = artefact_rows("ablation_synapse_types")
    # Baseline Flexon pays area per type; folded pays cycles per type.
    areas = [row["flexon_area"] for row in rows]
    signals = [row["signals"] for row in rows]
    assert areas == sorted(areas)
    assert signals == sorted(signals)
    # Folded wins AdEx at 1-2 types, loses at 3+ (the Destexhe regime).
    by_types = {row["n_types"]: row for row in rows}
    assert by_types[2]["folded_us"] < by_types[2]["flexon_us"]
    assert by_types[3]["folded_us"] > by_types[3]["flexon_us"]
