"""Schraudolph's fast exponential approximation.

The Flexon exponential unit (used by the EXI spike-initiation and the
conductance datapaths) is implemented in the paper with "a fast
approximation algorithm [46]" — Schraudolph, *A Fast, Compact
Approximation of the Exponential Function*, Neural Computation 1999.

The trick writes ``a * y + b`` into the exponent/high-mantissa field of
an IEEE-754 double; choosing ``a = 2**20 / ln 2`` makes the hardware
exponent field compute ``2**(y / ln 2) = e**y`` up to the piecewise-
linear mantissa interpolation, and ``b`` centres the approximation
error. Worst-case relative error is about 4% — well inside the
fixed-point quantisation budget of the 22-bit fraction used by Flexon.

Both a float version (:func:`fast_exp`) and a fixed-point wrapper
(:func:`fx_exp`) are provided; the hardware models call the latter.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from repro.fixedpoint.fixed import FixedFormat, fx_from_float, fx_to_float

#: Multiplier mapping y to the IEEE-754 double exponent field (bits 52+),
#: expressed for the high 32-bit word: 2**20 / ln(2).
_EXP_A = float(1 << 20) / np.log(2.0)

#: Offset: bias * 2**20 minus Schraudolph's error-centring constant C.
_EXP_C = 1023.0 * (1 << 20) - 60801.0

#: Input magnitude beyond which the biased exponent under/overflows.
_Y_MAX = 700.0


def fast_exp(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Approximate ``exp(y)`` with Schraudolph's bit-manipulation trick.

    Accepts a scalar or a numpy array; inputs are clipped to +/-700 so
    the biased exponent cannot wrap (the hardware unit saturates the
    same way).
    """
    scalar = np.isscalar(y)
    arr = np.clip(np.asarray(y, dtype=np.float64), -_Y_MAX, _Y_MAX)
    bits = (_EXP_A * arr + _EXP_C).astype(np.int64) << 32
    out = bits.view(np.float64)
    if scalar:
        return float(out)
    return out


def fx_exp(raw, fmt: FixedFormat, strict: bool = False):
    """Exponential of a raw fixed-point value, returned in the same format.

    Models the Flexon exp unit: the operand is interpreted in ``fmt``,
    passed through the Schraudolph approximation, and the result is
    re-quantised (with saturation) into ``fmt``. Large positive inputs
    therefore saturate at ``fmt.max_value``, exactly as a fixed-point
    output register would. The approximation is finite by construction,
    so an in-range result takes the quantiser's copy-free path.
    """
    y = fx_to_float(raw, fmt)
    return fx_from_float(fast_exp(y), fmt, strict=strict)


def fx_exp_enclosure(lo: int, hi: int, fmt: FixedFormat) -> Tuple[int, int]:
    """Raw bounds of :func:`fx_exp` over every raw operand in ``[lo, hi]``.

    The unit is non-decreasing — ``a * y + b``, a truncation, a bit
    pattern read as a positive double, then the monotone quantiser — so
    its ends are the images of the ends. They are widened by the one
    LSB rounding can move them, so the bound holds under either of
    :func:`fx_from_float`'s tie rules, and clipped to the format the
    quantiser saturates to.
    """
    ends = fast_exp(np.array([lo, hi], dtype=np.float64) / fmt.scale)
    # Past the format the quantiser saturates; cap before scaling so a
    # wide format's exp(700) cannot overflow the float.
    low, high = np.minimum(ends, fmt.max_value + 1.0) * fmt.scale
    return (
        min(math.floor(low), fmt.raw_max),
        min(math.floor(high) + 1, fmt.raw_max),
    )


def max_relative_error(lo: float = -1.0, hi: float = 1.0, samples: int = 10001) -> float:
    """Worst observed relative error of :func:`fast_exp` on ``[lo, hi]``.

    Used by tests and the exp-unit ablation bench to document the
    approximation quality on the range neuron simulations exercise.
    """
    ys = np.linspace(lo, hi, samples)
    exact = np.exp(ys)
    approx = fast_exp(ys)
    return float(np.max(np.abs(approx - exact) / exact))
