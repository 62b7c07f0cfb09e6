"""Unit tests for the Q-format fixed-point substrate."""

import numpy as np
import pytest

from repro.errors import FixedPointFormatError, FixedPointOverflowError
from repro.fixedpoint import (
    FLEXON_FORMAT,
    MEMBRANE_FORMAT,
    FixedFormat,
    SaturationStats,
    fx_add,
    fx_exp,
    fx_from_float,
    fx_mul,
    fx_neg,
    fx_saturate,
    fx_sub,
    fx_to_float,
    observe_saturation,
)


class TestFixedFormat:
    def test_flexon_format_is_32_bit_with_22_fraction_bits(self):
        assert FLEXON_FORMAT.total_bits == 32
        assert FLEXON_FORMAT.frac_bits == 22
        assert FLEXON_FORMAT.int_bits == 10

    def test_membrane_format_saves_bits(self):
        # The truncate optimisation: membrane storage is narrower.
        assert MEMBRANE_FORMAT.total_bits < FLEXON_FORMAT.total_bits
        assert MEMBRANE_FORMAT.frac_bits == FLEXON_FORMAT.frac_bits

    def test_scale(self):
        assert FixedFormat(16, 8).scale == 256

    def test_signed_range(self):
        fmt = FixedFormat(8, 4)
        assert fmt.raw_min == -128
        assert fmt.raw_max == 127
        assert fmt.min_value == -8.0
        assert fmt.max_value == pytest.approx(7.9375)

    def test_unsigned_range(self):
        fmt = FixedFormat(8, 4, signed=False)
        assert fmt.raw_min == 0
        assert fmt.raw_max == 255

    def test_resolution(self):
        assert FixedFormat(16, 10).resolution == pytest.approx(1 / 1024)

    def test_describe(self):
        assert FixedFormat(32, 22).describe() == "Q9.22"
        assert FixedFormat(8, 8, signed=False).describe() == "UQ0.8"

    def test_rejects_bad_total_bits(self):
        with pytest.raises(FixedPointFormatError):
            FixedFormat(0, 0)
        with pytest.raises(FixedPointFormatError):
            FixedFormat(64, 10)

    def test_rejects_bad_frac_bits(self):
        with pytest.raises(FixedPointFormatError):
            FixedFormat(16, 17)
        with pytest.raises(FixedPointFormatError):
            FixedFormat(16, -1)


class TestConversion:
    def test_round_trip_exact_values(self):
        for value in (0.0, 0.5, -0.25, 1.0, -1.0, 3.75):
            raw = fx_from_float(value, FLEXON_FORMAT)
            assert fx_to_float(raw, FLEXON_FORMAT) == value

    def test_quantisation_error_bounded_by_half_lsb(self):
        fmt = FLEXON_FORMAT
        values = np.linspace(-5, 5, 1001)
        raw = fx_from_float(values, fmt)
        back = fx_to_float(raw, fmt)
        assert np.max(np.abs(back - values)) <= fmt.resolution / 2 + 1e-12

    def test_rounds_to_nearest(self):
        fmt = FixedFormat(16, 4)  # resolution 1/16
        assert fx_from_float(0.06, fmt) == 1  # 0.96 LSB -> rounds to 1
        assert fx_from_float(0.03, fmt) == 0  # 0.48 LSB -> rounds to 0

    def test_negative_rounding_symmetry(self):
        fmt = FixedFormat(16, 4)
        assert fx_from_float(-0.06, fmt) == -1
        assert fx_from_float(-0.03, fmt) == 0

    def test_saturates_at_bounds(self):
        fmt = FixedFormat(8, 4)
        assert fx_from_float(100.0, fmt) == fmt.raw_max
        assert fx_from_float(-100.0, fmt) == fmt.raw_min

    def test_strict_mode_raises_on_overflow(self):
        fmt = FixedFormat(8, 4)
        with pytest.raises(FixedPointOverflowError):
            fx_from_float(100.0, fmt, strict=True)

    def test_array_conversion(self):
        values = np.array([0.5, -0.5, 2.0])
        raw = fx_from_float(values, FLEXON_FORMAT)
        assert isinstance(raw, np.ndarray)
        np.testing.assert_allclose(fx_to_float(raw, FLEXON_FORMAT), values)


class TestTieBreaking:
    """The scalar and array quantisers break k + 0.5 ties differently.

    The array rule is on the digest-bearing input path, so neither may
    drift: Q13.2 has scale 4, making x = (k + 0.5) / 4 an exact tie.
    """

    FMT = FixedFormat(16, 2)
    TIES = [k + 0.5 for k in range(-6, 6)]  # -5.5 .. 5.5, in LSBs

    def test_scalar_ties_round_away_from_zero(self):
        for tie in self.TIES:
            expected = int(np.sign(tie) * np.ceil(abs(tie)))
            assert fx_from_float(tie / 4, self.FMT) == expected, tie
        assert fx_from_float(-0.625, self.FMT) == -3

    def test_array_ties_round_half_up(self):
        values = np.array(self.TIES) / 4
        raw = fx_from_float(values, self.FMT)
        assert raw.tolist() == [int(np.floor(t + 0.5)) for t in self.TIES]
        assert fx_from_float(np.array([-0.625]), self.FMT)[0] == -2

    def test_array_rule_is_the_same_on_the_slow_branch(self):
        # One non-finite element sends the whole array through the
        # nan_to_num/clip branch; the finite ties must round alike.
        values = np.array(self.TIES + [np.nan, np.inf, -np.inf]) / 4
        raw = fx_from_float(values, self.FMT)
        assert raw[:-3].tolist() == [int(np.floor(t + 0.5)) for t in self.TIES]
        assert raw[-3:].tolist() == [0, self.FMT.raw_max, self.FMT.raw_min]


class TestEmptyArrays:
    """Size-0 arrays pass through every vector helper, checking nothing."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda e, fmt: fx_saturate(e, fmt),
            lambda e, fmt: fx_saturate(e, fmt, strict=True),
            lambda e, fmt: fx_from_float(e.astype(np.float64), fmt),
            lambda e, fmt: fx_add(e, e, fmt),
            lambda e, fmt: fx_add(e, 3, fmt),
            lambda e, fmt: fx_sub(e, e, fmt),
            lambda e, fmt: fx_neg(e, fmt),
            lambda e, fmt: fx_mul(e, e, fmt),
            lambda e, fmt: fx_exp(e, fmt),
        ],
    )
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_in_empty_out(self, op, shape):
        stats = SaturationStats()
        empty = np.zeros(shape, dtype=np.int64)
        with observe_saturation(stats):
            out = op(empty, FLEXON_FORMAT)
        assert out.shape == shape and out.dtype == np.int64
        assert stats.checked == 0 and stats.total_clipped == 0


class TestArithmetic:
    def test_add(self):
        fmt = FLEXON_FORMAT
        a = fx_from_float(1.5, fmt)
        b = fx_from_float(2.25, fmt)
        assert fx_to_float(fx_add(a, b, fmt), fmt) == 3.75

    def test_sub(self):
        fmt = FLEXON_FORMAT
        a = fx_from_float(1.0, fmt)
        b = fx_from_float(2.5, fmt)
        assert fx_to_float(fx_sub(a, b, fmt), fmt) == -1.5

    def test_neg(self):
        fmt = FLEXON_FORMAT
        a = fx_from_float(0.75, fmt)
        assert fx_to_float(fx_neg(a, fmt), fmt) == -0.75

    def test_mul_exact_powers_of_two(self):
        fmt = FLEXON_FORMAT
        a = fx_from_float(0.5, fmt)
        b = fx_from_float(0.25, fmt)
        assert fx_to_float(fx_mul(a, b, fmt), fmt) == 0.125

    def test_mul_truncates_toward_negative_infinity(self):
        fmt = FixedFormat(16, 4)
        # 0.0625 * 0.0625 = 0.00390625, below one LSB (0.0625)
        a = fx_from_float(0.0625, fmt)
        assert fx_mul(a, a, fmt) == 0
        # Negative products truncate downward (arithmetic shift).
        b = fx_from_float(-0.0625, fmt)
        assert fx_mul(a, b, fmt) == -1  # -0.0039 -> -1 raw (-0.0625)

    def test_mul_by_one_is_identity(self):
        fmt = FLEXON_FORMAT
        one = fx_from_float(1.0, fmt)
        for value in (0.3, -2.7, 100.0):
            raw = fx_from_float(value, fmt)
            assert fx_mul(raw, one, fmt) == raw

    def test_add_saturates(self):
        fmt = FixedFormat(8, 4)
        assert fx_add(fmt.raw_max, 1, fmt) == fmt.raw_max
        assert fx_sub(fmt.raw_min, 1, fmt) == fmt.raw_min

    def test_add_strict_raises(self):
        fmt = FixedFormat(8, 4)
        with pytest.raises(FixedPointOverflowError):
            fx_add(fmt.raw_max, 1, fmt, strict=True)

    def test_array_ops_match_scalar_ops(self):
        fmt = FLEXON_FORMAT
        values_a = np.array([0.3, -1.2, 5.0])
        values_b = np.array([0.7, 0.4, -2.0])
        raw_a = fx_from_float(values_a, fmt)
        raw_b = fx_from_float(values_b, fmt)
        vec = fx_mul(raw_a, raw_b, fmt)
        for i in range(3):
            assert vec[i] == fx_mul(int(raw_a[i]), int(raw_b[i]), fmt)

    def test_array_saturation_clips(self):
        fmt = FixedFormat(8, 4)
        raw = np.array([fmt.raw_max, fmt.raw_min], dtype=np.int64)
        out = fx_add(raw, np.array([10, -10]), fmt)
        assert out[0] == fmt.raw_max
        assert out[1] == fmt.raw_min

