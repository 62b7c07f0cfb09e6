"""The folded step proves saturation points in range instead of scanning.

``FoldedFlexonNeuron.step`` carries a Python-int enclosure beside every
value and skips the scan of a saturation point whose enclosure lies
inside the format. The contract is *same bits, same counts* as the step
that scans every point (``tests/oracles/folded_scan.py``): registers,
counter, fired mask, ``checked`` and per-format ``clipped`` — on
generated feature sets with hostile register contents, on every
registry workload, across fault injection and ``restore``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureConflictError
from repro.features import MODEL_FEATURES, FeatureSet
from repro.fixedpoint import (
    FLEXON_FORMAT,
    MEMBRANE_FORMAT,
    SaturationStats,
    fx_exp,
    fx_exp_enclosure,
    fx_from_float,
    fx_record_proved,
    fx_saturate,
    fx_saturate_enclosed,
    observe_saturation,
)
from repro.hardware.backend import FoldedFlexonBackend
from repro.hardware.compiler import FlexonCompiler
from repro.hardware.constants import prepare_constants
from repro.hardware.control import N_STATE_REGISTERS
from repro.hardware.folded import FoldedFlexonNeuron
from repro.hardware.microcode import assemble
from repro.models import ModelParameters
from repro.models.registry import create_model
from repro.network.simulator import Simulator
from repro.telemetry.registry import MetricsRegistry
from repro.workloads import build_workload, workload_names
from tests.oracles.faults import FaultInjector
from tests.oracles.folded_scan import (
    ScanningFoldedBackend,
    ScanningFoldedNeuron,
    scanning,
)
from tests.properties.test_model_properties import feature_subsets

DT = 1e-4
FMT = FLEXON_FORMAT

#: Values the salting writes into registers and inputs: the format's
#: ends, one past the top, and two bit flips far outside it — bit 40
#: overflows Q9.22 without wrapping, bit 62 wraps the int64 product.
SALT = (FMT.raw_max, FMT.raw_min, FMT.raw_max + 1, 1 << 40, 1 << 62, -(1 << 62))


def _program_of(features):
    fs = FeatureSet(features)
    return assemble(fs, prepare_constants(ModelParameters(), fs, DT))


def _lockstep(program, n, seed, steps=40):
    """Step the proving neuron and the scanning oracle on salted state."""
    neuron = FoldedFlexonNeuron(program, n)
    oracle = ScanningFoldedNeuron(program, n)
    stats, oracle_stats = SaturationStats(), SaturationStats()
    rng = np.random.default_rng(seed)
    n_types = program.constants.n_synapse_types
    for step in range(steps):
        weights = (rng.random((n_types, n)) < 0.3) * rng.random((n_types, n))
        raw = fx_from_float(weights * 8.0, FMT)
        if n and rng.random() < 0.5:
            salt = SALT[rng.integers(len(SALT))]
            column = rng.integers(n)
            if rng.random() < 0.3:
                raw[rng.integers(n_types), column] = salt
            else:
                row = rng.integers(N_STATE_REGISTERS)
                neuron.regs[row, column] = oracle.regs[row, column] = salt
        with observe_saturation(stats):
            fired = neuron.step(raw.copy())
        with observe_saturation(oracle_stats):
            oracle_fired = oracle.step(raw.copy())
        assert np.array_equal(fired, oracle_fired), step
        assert np.array_equal(neuron.regs, oracle.regs), step
        if neuron.cnt is not None:
            assert np.array_equal(neuron.cnt, oracle.cnt), step
        assert stats.checked == oracle_stats.checked, step
        assert stats.clipped == oracle_stats.clipped, step
    assert neuron.total_cycles == oracle.total_cycles
    assert neuron.points_proved + neuron.points_scanned == steps * neuron.points_per_step
    return neuron, stats


class TestSameBitsSameCounts:
    @given(
        feature_subsets,
        st.sampled_from([0, 1, 2, 64]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_valid_feature_sets_on_salted_state(self, features, n, seed):
        try:
            program = _program_of(features)
        except FeatureConflictError:
            return
        _lockstep(program, n, seed)

    @given(
        st.sampled_from(list(MODEL_FEATURES)),
        st.sampled_from([0, 1, 2, 64]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_table_iii_models_on_salted_state(self, name, n, seed):
        program = FlexonCompiler().compile(create_model(name), DT).program
        _lockstep(program, n, seed)

    def test_the_salt_reaches_both_paths(self):
        # Not vacuous: salted runs clip (the scan path) and still prove
        # most points (the fast path) — and wrap, via the bit-62 salts.
        program = FlexonCompiler().compile(create_model("AdEx"), DT).program
        proved = scanned = clipped = 0
        for seed in range(8):
            neuron, stats = _lockstep(program, 64, seed)
            proved += neuron.points_proved
            scanned += neuron.points_scanned
            clipped += stats.total_clipped
        assert proved > 0 and scanned > 0 and clipped > 0

    @pytest.mark.parametrize("model", ["LIF", "LLIF", "Izhikevich"])
    def test_a_reset_value_outside_the_membrane_format_is_clipped(self, model):
        # Stage 2 writes v_reset over the neurons that fired, so the
        # write-back's enclosure must reach down to it even when every
        # accumulated value sat above.
        base = FlexonCompiler().compile(create_model(model), DT).program
        program = dataclasses.replace(
            base,
            constants=dataclasses.replace(
                base.constants, v_reset=MEMBRANE_FORMAT.raw_min - 5
            ),
        )
        neuron, stats = _lockstep(program, 64, seed=1, steps=200)
        assert stats.clipped.get(MEMBRANE_FORMAT, 0) > 0
        assert neuron.points_proved > neuron.points_scanned > 0

    def test_step_without_a_sink_records_nothing_and_keeps_the_bits(self):
        compiled = FlexonCompiler().compile(create_model("Izhikevich"), DT)
        observed = compiled.instantiate_folded(16)
        bare = compiled.instantiate_folded(16)
        oracle = scanning(bare)
        stats = SaturationStats()
        rng = np.random.default_rng(4)
        for _ in range(200):
            weights = (rng.random((2, 16)) < 0.3) * 1.5
            raw = fx_from_float(weights * compiled.weight_scale, FMT)
            with observe_saturation(stats):
                fired = observed.step(raw.copy())
            assert np.array_equal(bare.step(raw.copy()), fired)
            assert np.array_equal(oracle.step(raw.copy()), fired)
        assert np.array_equal(bare.regs, observed.regs)
        assert np.array_equal(bare.regs, oracle.regs)
        # Only the observed twin recorded; the proof itself still ran.
        assert stats.checked == 200 * 16 * observed.points_per_step
        assert bare.points_proved == observed.points_proved > 0
        assert bare.points_scanned == observed.points_scanned


def _run(backend, workload, steps, scale=0.03, seed=3):
    network = build_workload(workload, scale=scale, seed=seed)
    simulator = Simulator(network, backend, dt=DT, seed=seed + 1)
    result = simulator.run(steps)
    return simulator, result


def _counters(simulator):
    return {
        name: (
            runtime.saturation_stats.checked,
            dict(runtime.saturation_stats.clipped),
            runtime.neuron.total_cycles,
            runtime.neuron.regs.tobytes(),
            None if runtime.neuron.cnt is None else runtime.neuron.cnt.tobytes(),
        )
        for name, runtime in simulator.backend.runtimes.items()
    }


def _points(simulator):
    # Proof counters belong to the stepped array: one per block.
    proved = scanned = per_step = 0
    for runtime in simulator.backend.block_runtimes.values():
        proved += runtime.neuron.points_proved
        scanned += runtime.neuron.points_scanned
        per_step += runtime.neuron.points_per_step
    return proved, scanned, per_step


#: Workloads whose registry parameters clip (Q1.22 membrane clamps,
#: Q9.22 transients): their clipping steps must take the scan.
CLIPPING = {
    "Brunel", "Destexhe-LTS", "Destexhe-UpDown", "Izhikevich", "Nowotny et al.",
}


class TestRegistryWorkloads:
    @pytest.mark.parametrize("workload", workload_names())
    def test_folded_equals_the_scanning_oracle(self, workload):
        steps = 1200
        simulator, result = _run(FoldedFlexonBackend(DT), workload, steps)
        oracle, oracle_result = _run(ScanningFoldedBackend(DT), workload, steps)
        assert result.spikes.digest() == oracle_result.spikes.digest()
        assert _counters(simulator) == _counters(oracle)
        proved, scanned, per_step = _points(simulator)
        # Every point of every step is accounted for, one way or the other.
        assert proved + scanned == steps * per_step
        clipped = sum(
            runtime.saturation_stats.total_clipped
            for runtime in simulator.backend.runtimes.values()
        )
        if workload in CLIPPING:
            assert clipped > 0 and scanned > 0
            # A point that clips cannot have been proved in range.
            assert proved > 0.9 * steps * per_step
        else:
            assert clipped == 0 and scanned == 0

    @pytest.mark.parametrize(
        "workload, expect_scans", [("Muller et al.", False), ("Brunel", True)]
    )
    def test_proved_and_scanned_are_published(self, workload, expect_scans):
        network = build_workload(workload, scale=0.03, seed=3)
        simulator = Simulator(network, FoldedFlexonBackend(DT), dt=DT, seed=4)
        result = simulator.run(900, metrics=MetricsRegistry())

        def total(family):
            values = result.metrics[family]["values"]
            assert {entry["labels"]["population"] for entry in values} == {
                block.name for block in simulator.backend.blocks
            }
            return sum(entry["value"] for entry in values)

        proved, scanned, per_step = _points(simulator)
        assert total("fixedpoint_saturation_proved_total") == proved
        assert total("fixedpoint_saturation_scanned_total") == scanned
        assert proved + scanned == 900 * per_step
        assert (scanned > 0) == expect_scans

    def test_the_counters_stay_out_of_the_checkpoint(self):
        neuron = FlexonCompiler().compile(create_model("LIF"), DT).instantiate_folded(3)
        neuron.step(np.zeros((2, 3), dtype=np.int64))
        assert neuron.points_proved > 0
        assert sorted(neuron.snapshot()) == ["cnt", "regs", "total_cycles"]


class TestEnclosuresAreNotCarriedAcrossSteps:
    """``regs`` is written through views between steps; a range kept from
    the last step would prove a flipped word in range and skip its clip."""

    def _pair(self, workload="Izhikevich"):
        pair = []
        for backend in (FoldedFlexonBackend(DT), ScanningFoldedBackend(DT)):
            network = build_workload(workload, scale=0.03, seed=3)
            pair.append(Simulator(network, backend, dt=DT, seed=4))
        return pair

    def _agree(self, simulator, oracle, steps=60):
        result, oracle_result = simulator.run(steps), oracle.run(steps)
        assert result.spikes.digest() == oracle_result.spikes.digest()
        assert _counters(simulator) == _counters(oracle)

    def test_a_bit_flip_and_a_restore_mid_run(self):
        simulator, oracle = self._pair()
        self._agree(simulator, oracle, steps=200)
        runtime = simulator.backend.runtime("exc")
        clipped_before = runtime.saturation_stats.clipped.get(FMT, 0)

        for sim in (simulator, oracle):
            flips = FaultInjector(sim, seed=9).flip_state_bits(
                "exc", n_flips=40, variable="w"
            )
        assert any(flip.bit >= 28 for flip in flips)  # far outside last step's range
        self._agree(simulator, oracle)
        assert runtime.saturation_stats.clipped.get(FMT, 0) > clipped_before

        # restore(): same buffers, new contents, straight into the rows.
        payload = runtime.snapshot()
        regs = payload["neuron"]["regs"]
        regs[:, ::3] = FMT.raw_max
        regs[:, 1::3] = FMT.raw_min
        for sim in (simulator, oracle):
            sim.backend.runtime("exc").restore(payload)
        clipped_before = runtime.saturation_stats.total_clipped
        self._agree(simulator, oracle)
        assert runtime.saturation_stats.total_clipped > clipped_before


class TestThePrimitives:
    def test_a_proved_point_records_what_a_scan_would(self):
        raw = np.array([-5, 0, 7], dtype=np.int64)
        proved, scanned = SaturationStats(), SaturationStats()
        with observe_saturation(proved):
            fx_record_proved(FMT, raw.size)
        with observe_saturation(scanned):
            fx_saturate(raw, FMT)
        assert (proved.checked, proved.clipped) == (scanned.checked, scanned.clipped)
        fx_record_proved(FMT, 3)  # no sink: nothing to record, nothing raised

    def test_unproved_scans_and_clips_the_enclosure(self):
        raw = np.array([FMT.raw_max + 9, 0, 7], dtype=np.int64)
        stats = SaturationStats()
        with observe_saturation(stats):
            out, lo, hi = fx_saturate_enclosed(raw, FMT, -5, FMT.raw_max + 9)
        assert (lo, hi) == (-5, FMT.raw_max)
        assert out.tolist() == [FMT.raw_max, 0, 7]
        assert stats.checked == 3 and stats.clipped == {FMT: 1}

    def test_a_loose_enclosure_over_an_in_range_array_clips_nothing(self):
        raw = np.array([1, 2], dtype=np.int64)
        stats = SaturationStats()
        with observe_saturation(stats):
            out, lo, hi = fx_saturate_enclosed(raw, FMT, -(1 << 35), 1 << 35)
        assert out is raw and (lo, hi) == (FMT.raw_min, FMT.raw_max)
        assert stats.checked == 2 and not stats.clipped

    def test_an_enclosure_wholly_outside_collapses_onto_the_bound(self):
        raw = np.array([FMT.raw_max + 1, FMT.raw_max + 2], dtype=np.int64)
        _, lo, hi = fx_saturate_enclosed(raw, FMT, FMT.raw_max + 1, FMT.raw_max + 2)
        assert lo == hi == FMT.raw_max

    @pytest.mark.parametrize("fmt", [FMT, MEMBRANE_FORMAT])
    def test_a_product_that_may_have_wrapped_is_only_known_to_be_in_format(self, fmt):
        # True product 2**62 * 2**9 >> 22 = 2**49 (all "above the
        # format"), but int64 wrapped it to 0: the scan sees 0, and the
        # enclosure must not claim raw_max.
        wrapped = (np.array([1 << 62], dtype=np.int64) * (1 << 9)) >> 22
        out, lo, hi = fx_saturate_enclosed(wrapped, fmt, 1 << 49, 1 << 49)
        assert out.tolist() == [0]
        assert (lo, hi) == (fmt.raw_min, fmt.raw_max)


class TestTheExpRule:
    """``fx_exp`` is non-decreasing: the one fact its enclosure rests on."""

    def _sweep(self):
        top = int(np.log(FMT.max_value) * FMT.scale)  # where exp saturates
        windows = [
            np.arange(FMT.raw_min, FMT.raw_min + 4096),
            np.arange(-4096, 4096),
            np.arange(top - 4096, top + 4096),
            np.arange(FMT.raw_max - 4096, FMT.raw_max + 1),
            np.arange(FMT.raw_min, FMT.raw_max, 2053),  # ~2 M strided points
        ]
        return np.unique(np.concatenate(windows)).astype(np.int64)

    def test_fx_exp_is_non_decreasing_across_q9_22(self):
        raw = self._sweep()
        out = fx_exp(raw, FMT)
        assert np.all(np.diff(out) >= 0)
        assert out[0] == 0 and out[-1] == FMT.raw_max  # both saturating ends

    def test_the_enclosure_holds_every_image(self):
        rng = np.random.default_rng(0)
        raw = self._sweep()
        out = fx_exp(raw, FMT)
        for _ in range(300):
            i, j = sorted(rng.integers(raw.size, size=2))
            lo, hi = fx_exp_enclosure(int(raw[i]), int(raw[j]), FMT)
            assert FMT.raw_min <= lo <= out[i] and out[j] <= hi <= FMT.raw_max
            assert hi - out[j] <= 1 and out[i] - lo <= 1  # tight to the rounding
