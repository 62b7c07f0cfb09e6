"""Property-based tests for the fixed-point substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FixedPointOverflowError
from repro.fixedpoint import (
    FLEXON_FORMAT,
    MEMBRANE_FORMAT,
    FixedFormat,
    SaturationStats,
    fast_exp,
    fx_add,
    fx_from_float,
    fx_mul,
    fx_neg,
    fx_saturate,
    fx_sub,
    fx_to_float,
)
from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model

FMT = FLEXON_FORMAT

raw_values = st.integers(min_value=FMT.raw_min, max_value=FMT.raw_max)
floats_in_range = st.floats(
    min_value=FMT.min_value / 2,
    max_value=FMT.max_value / 2,
    allow_nan=False,
    allow_infinity=False,
)


class TestConversionProperties:
    @given(floats_in_range)
    def test_round_trip_error_within_half_lsb(self, value):
        raw = fx_from_float(value, FMT)
        assert abs(fx_to_float(raw, FMT) - value) <= FMT.resolution / 2 + 1e-15

    @given(raw_values)
    def test_raw_round_trip_is_exact(self, raw):
        assert fx_from_float(fx_to_float(raw, FMT), FMT) == raw

    @given(st.floats(allow_nan=False))
    def test_conversion_never_leaves_range(self, value):
        raw = fx_from_float(value, FMT)
        assert FMT.raw_min <= raw <= FMT.raw_max

    @given(floats_in_range, floats_in_range)
    def test_quantisation_is_monotone(self, a, b):
        if a <= b:
            assert fx_from_float(a, FMT) <= fx_from_float(b, FMT)


class TestArithmeticProperties:
    @given(raw_values, raw_values)
    def test_add_commutes(self, a, b):
        assert fx_add(a, b, FMT) == fx_add(b, a, FMT)

    @given(raw_values, raw_values)
    def test_mul_commutes(self, a, b):
        assert fx_mul(a, b, FMT) == fx_mul(b, a, FMT)

    @given(raw_values)
    def test_add_zero_is_identity(self, a):
        assert fx_add(a, 0, FMT) == a

    @given(raw_values)
    def test_mul_one_is_identity(self, a):
        one = fx_from_float(1.0, FMT)
        assert fx_mul(a, one, FMT) == a

    @given(raw_values)
    def test_mul_zero_is_zero(self, a):
        assert fx_mul(a, 0, FMT) == 0

    @given(raw_values)
    def test_neg_is_involution_away_from_rails(self, a):
        if a != FMT.raw_min:
            assert fx_neg(fx_neg(a, FMT), FMT) == a

    @given(raw_values, raw_values)
    def test_sub_is_add_of_negation(self, a, b):
        if b != FMT.raw_min:
            assert fx_sub(a, b, FMT) == fx_add(a, fx_neg(b, FMT), FMT)

    @given(raw_values, raw_values)
    def test_results_always_in_range(self, a, b):
        for op in (fx_add, fx_sub, fx_mul):
            result = op(a, b, FMT)
            assert FMT.raw_min <= result <= FMT.raw_max

    @given(raw_values, raw_values)
    def test_mul_truncation_error_bounded(self, a, b):
        exact = fx_to_float(a, FMT) * fx_to_float(b, FMT)
        if FMT.min_value <= exact <= FMT.max_value:
            approx = fx_to_float(fx_mul(a, b, FMT), FMT)
            assert exact - approx < FMT.resolution + 1e-15
            assert approx <= exact + 1e-15  # truncation never rounds up

    @given(
        st.lists(raw_values, min_size=2, max_size=8),
    )
    def test_addition_order_invariant_without_saturation(self, values):
        # Bounded inputs that cannot saturate: reorderings agree —
        # the property that lets baseline Flexon's adder tree and the
        # folded accumulator produce identical sums.
        scaled = [v // 16 for v in values]
        total = 0
        for v in scaled:
            total = fx_add(total, v, FMT)
        total_reversed = 0
        for v in reversed(scaled):
            total_reversed = fx_add(total_reversed, v, FMT)
        assert total == total_reversed

    @given(raw_values, raw_values)
    def test_vector_and_scalar_paths_agree(self, a, b):
        vec = fx_mul(
            np.array([a], dtype=np.int64), np.array([b], dtype=np.int64), FMT
        )
        assert int(vec[0]) == fx_mul(a, b, FMT)


def _raw_arrays(fmt):
    """int64 arrays salted with the rails and their first neighbours."""
    rails = st.sampled_from(
        [fmt.raw_max, fmt.raw_max + 1, fmt.raw_min, fmt.raw_min - 1]
    )
    anywhere = st.integers(min_value=-(2**40), max_value=2**40)
    inside = st.integers(min_value=fmt.raw_min, max_value=fmt.raw_max)
    return st.one_of(
        st.lists(inside, max_size=40),  # the in-range fast path
        st.lists(st.one_of(rails, inside, anywhere), max_size=40),
    ).map(lambda values: np.array(values, dtype=np.int64))


formats = st.sampled_from([FLEXON_FORMAT, MEMBRANE_FORMAT, FixedFormat(8, 4)])


class TestSaturationAccountingProperties:
    """``fx_saturate`` on arrays == count over, count under, clip."""

    @given(st.data(), formats)
    def test_values_and_counts_equal_the_reference(self, data, fmt):
        raw = data.draw(_raw_arrays(fmt))
        over = int(np.count_nonzero(raw > fmt.raw_max))
        under = int(np.count_nonzero(raw < fmt.raw_min))
        expected = np.clip(raw, fmt.raw_min, fmt.raw_max)

        stats = SaturationStats()
        out = fx_saturate(raw.copy(), fmt, stats=stats)
        assert np.array_equal(out, expected)
        assert stats.checked == raw.size
        clipped = over + under
        assert stats.clipped == ({fmt: clipped} if clipped else {})

    @given(st.data(), formats)
    def test_strict_raises_exactly_when_something_is_out_of_range(
        self, data, fmt
    ):
        raw = data.draw(_raw_arrays(fmt))
        stats = SaturationStats()
        if np.any(raw > fmt.raw_max) or np.any(raw < fmt.raw_min):
            with pytest.raises(FixedPointOverflowError):
                fx_saturate(raw.copy(), fmt, strict=True, stats=stats)
        else:
            out = fx_saturate(raw.copy(), fmt, strict=True, stats=stats)
            assert np.array_equal(out, raw)
        assert stats.checked == 0  # strict mode asserts, it does not count

    @given(
        st.sampled_from(["LIF", "LLIF", "DLIF", "Izhikevich", "AdEx"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_neuron_state_never_aliases_caller_arrays(
        self, model, folded, seed
    ):
        # In-range arrays come back uncopied, so a stored result could
        # alias what the caller handed in. Twin neurons see the same
        # inputs; one twin's caller scribbles over everything it owns
        # (inputs, returned mask) after each step. States must agree.
        compiled = FlexonCompiler().compile(create_model(model), 1e-4)
        make = compiled.instantiate_folded if folded else compiled.instantiate_flexon
        clean, scribbled = make(6), make(6)
        rng = np.random.default_rng(seed)
        n_types = compiled.constants.n_synapse_types
        for _ in range(40):
            weights = (rng.random((n_types, 6)) < 0.3) * rng.uniform(0.1, 1.0)
            raw = fx_from_float(weights * compiled.weight_scale, FLEXON_FORMAT)
            expected = clean.step(raw.copy())
            fired = scribbled.step(raw)
            assert np.array_equal(fired, expected)
            raw[...] = FLEXON_FORMAT.raw_max
            fired[...] = True
            for name, values in clean.snapshot().items():
                assert np.array_equal(values, scribbled.snapshot()[name]), name


class TestFastExpProperties:
    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_relative_error_bounded(self, y):
        exact = np.exp(y)
        assert abs(fast_exp(y) - exact) / exact < 0.05

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_monotone(self, a, b):
        if a <= b:
            assert fast_exp(a) <= fast_exp(b) * (1 + 1e-12)

    @given(st.floats(allow_nan=False))
    def test_output_positive_and_finite(self, y):
        out = fast_exp(y)
        assert out >= 0.0
        assert np.isfinite(out)


class TestFormatProperties:
    @given(
        st.integers(min_value=2, max_value=63),
        st.data(),
    )
    def test_any_valid_format_round_trips_zero_and_bounds(self, bits, data):
        frac = data.draw(st.integers(min_value=0, max_value=bits))
        fmt = FixedFormat(bits, frac)
        assert fx_from_float(0.0, fmt) == 0
        assert fx_from_float(fmt.max_value, fmt) == fmt.raw_max
        assert fx_from_float(fmt.min_value, fmt) == fmt.raw_min
