"""The central hardware correctness tests.

Three properties, checked for every Table III model:

1. **Bit-exactness** — baseline Flexon and folded Flexon produce
   identical spikes *and* identical raw state at every step (the
   guarantee the Table V control-signal schedules must provide).
2. **Reference agreement** — the fixed-point hardware matches the
   float Euler reference to a high per-step spike agreement (the
   Section VI-A verification).
3. **Bounded membrane** — on these stimuli the stored membrane never
   leaves the truncated Q1.22 range (checked by value range
   assertions; the per-format clip counts every hardware run keeps are
   pinned in ``test_limits.py``).
"""

import numpy as np
import pytest

from repro.features import MODEL_FEATURES
from repro.fixedpoint import FLEXON_FORMAT, fx_from_float
from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model

DT = 1e-4
ALL_MODELS = list(MODEL_FEATURES)
_CURRENT_MODELS = {"LIF", "LLIF", "SLIF"}


def _drive(name, steps=500, n=24, seed=11):
    """Run flexon + folded + reference side by side; return stats."""
    model = create_model(name)
    compiled = FlexonCompiler().compile(model, DT)
    flexon = compiled.instantiate_flexon(n)
    folded = compiled.instantiate_folded(n)
    reference = model.initial_state(n)
    rng = np.random.default_rng(seed)
    base = 40.0 if name in _CURRENT_MODELS else 1.5
    n_types = model.parameters.n_synapse_types
    stats = {
        "bit_exact": True,
        "agreement": 0,
        "hw_spikes": 0,
        "ref_spikes": 0,
        "max_abs_v": 0.0,
    }
    for _ in range(steps):
        weights = (rng.random((n_types, n)) < 0.08) * base
        if n_types > 1:
            weights[1] *= 0.2
        raw = fx_from_float(
            weights * compiled.weight_scale, FLEXON_FORMAT
        )
        fired_fx = flexon.step(raw.copy())
        fired_fd = folded.step(raw.copy())
        if not np.array_equal(fired_fx, fired_fd):
            stats["bit_exact"] = False
        fd_state = folded.float_state()
        fx_state = flexon.float_state()
        for key in fx_state:
            if not np.array_equal(fx_state[key], fd_state[key]):
                stats["bit_exact"] = False
        fired_ref = model.step(reference, weights.copy(), DT)
        stats["agreement"] += int((fired_fx == fired_ref).sum())
        stats["hw_spikes"] += int(fired_fx.sum())
        stats["ref_spikes"] += int(fired_ref.sum())
        stats["max_abs_v"] = max(
            stats["max_abs_v"], float(np.max(np.abs(fx_state["v"])))
        )
    stats["agreement"] /= steps * n
    return stats


@pytest.fixture(scope="module")
def driven():
    return {name: _drive(name) for name in ALL_MODELS}


@pytest.mark.parametrize("name", ALL_MODELS)
def test_flexon_and_folded_are_bit_identical(driven, name):
    assert driven[name]["bit_exact"], (
        f"{name}: folded microcode diverged from the baseline datapaths"
    )


@pytest.mark.parametrize("name", ALL_MODELS)
def test_hardware_matches_reference_spikes(driven, name):
    assert driven[name]["agreement"] >= 0.97, (
        f"{name}: only {driven[name]['agreement']:.3f} per-step agreement"
    )


@pytest.mark.parametrize("name", ALL_MODELS)
def test_spike_counts_close_to_reference(driven, name):
    hw = driven[name]["hw_spikes"]
    ref = driven[name]["ref_spikes"]
    assert abs(hw - ref) <= max(3, 0.05 * max(hw, ref)), (
        f"{name}: hw={hw} vs ref={ref}"
    )


@pytest.mark.parametrize("name", ALL_MODELS)
def test_models_actually_fire_under_test_stimulus(driven, name):
    # A silent model would make the agreement tests vacuous.
    assert driven[name]["hw_spikes"] > 0, f"{name} never fired"


@pytest.mark.parametrize("name", ALL_MODELS)
def test_membrane_stays_within_truncated_format(driven, name):
    # The truncate optimisation stores v in Q1.22 (|v| <= 2). Heavy
    # inhibition can legitimately push AdEx-family membranes onto the
    # -2 rail, where the storage format saturates; the invariant is
    # that values never escape the representable range.
    assert driven[name]["max_abs_v"] <= 2.0, (
        f"{name}: membrane escaped the truncated storage range"
    )


def test_equivalence_holds_across_time_steps():
    # The constants bake dt in; equivalence must hold for other dt too.
    for dt in (1e-3, 5e-4, 1e-4):
        model = create_model("AdEx")
        compiled = FlexonCompiler().compile(model, dt)
        flexon = compiled.instantiate_flexon(8)
        folded = compiled.instantiate_folded(8)
        rng = np.random.default_rng(0)
        for _ in range(200):
            weights = (rng.random((2, 8)) < 0.1) * 1.0
            raw = fx_from_float(
                weights * compiled.weight_scale, FLEXON_FORMAT
            )
            assert np.array_equal(
                flexon.step(raw.copy()), folded.step(raw.copy())
            )
