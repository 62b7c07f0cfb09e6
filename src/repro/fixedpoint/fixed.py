"""Q-format fixed-point numbers, scalar and vectorised.

A :class:`FixedFormat` describes a two's-complement Q-format:
``total_bits`` bits in all, of which ``frac_bits`` are fractional.
Raw values are plain Python ints (scalar path) or ``numpy.int64``
arrays (vector path); the format object interprets them.

Every helper *saturates*, as the RTL does, and counts what it clips:
under :class:`observe_saturation` each clip is recorded per format in a
:class:`SaturationStats`. Hardware runs report those counts, and tests
assert the paper's "chosen formats never saturate" the same way, as
``total_clipped == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FixedPointError, FixedPointFormatError

#: Scalar or numpy array of raw fixed-point integers.
RawLike = Union[int, np.ndarray]


@dataclass(frozen=True)
class FixedFormat:
    """A two's-complement Q-format descriptor.

    Parameters
    ----------
    total_bits:
        Total width in bits, including the sign bit when ``signed``.
    frac_bits:
        Number of fractional bits. ``total_bits - frac_bits`` is the
        integer portion (including sign for signed formats).
    signed:
        Whether the format is two's-complement signed.
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.total_bits <= 0 or self.total_bits > 63:
            raise FixedPointFormatError(
                f"total_bits must be in 1..63, got {self.total_bits}"
            )
        if self.frac_bits < 0 or self.frac_bits > self.total_bits:
            raise FixedPointFormatError(
                f"frac_bits must be in 0..total_bits, got {self.frac_bits}"
            )
        if self.signed and self.total_bits < 2:
            raise FixedPointFormatError("signed formats need at least 2 bits")

    @property
    def int_bits(self) -> int:
        """Bits in the integer portion (includes the sign bit if signed)."""
        return self.total_bits - self.frac_bits

    # ``scale``/``raw_min``/``raw_max`` are read on every saturation
    # check, so they are computed once per format object (cached in the
    # instance dict, which ``frozen`` does not guard; equality, hashing
    # and ``repr`` still see the three fields only).

    @cached_property
    def scale(self) -> int:
        """The scaling factor ``2 ** frac_bits``."""
        return 1 << self.frac_bits

    @cached_property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        if self.signed:
            return -(1 << (self.total_bits - 1))
        return 0

    @cached_property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max / self.scale

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit."""
        return 1.0 / self.scale

    def describe(self) -> str:
        """Human-readable Q-format name, e.g. ``Q9.22`` for signed 32-bit."""
        prefix = "Q" if self.signed else "UQ"
        int_part = self.int_bits - (1 if self.signed else 0)
        return f"{prefix}{int_part}.{self.frac_bits}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


#: The paper's 32-bit format with 10 integer bits (sign + 9) and 22
#: fractional bits, used for constants and general datapath values.
FLEXON_FORMAT = FixedFormat(total_bits=32, frac_bits=22, signed=True)

#: Truncated membrane-potential storage: theta == 1.0 keeps v in [0, 1),
#: so only 22 bits of fraction (plus sign to allow transient negatives
#: during inhibition) need to persist per neuron. This reproduces the
#: 32 -> 22 bits/neuron saving reported in Section IV-B1.
MEMBRANE_FORMAT = FixedFormat(total_bits=24, frac_bits=22, signed=True)


@dataclass
class SaturationStats:
    """Per-format accounting of saturation events.

    The RTL saturates silently; the paper's correctness argument rests
    on the chosen formats *never* saturating on the evaluated workloads
    (Section VI-A). These counters make that claim observable: each
    time a saturate actually clips, the clipped element count is
    recorded against the format that clipped it.
    """

    #: Elements clipped, keyed by the format that clipped them.
    clipped: Dict[FixedFormat, int] = field(default_factory=dict)
    #: Total elements examined while accounting was active.
    checked: int = 0

    #: Column segments a scan that clips is counted by (none: one sink
    #: for the whole array; see :class:`SegmentedStats`).
    segments = ()

    def record(self, fmt: FixedFormat, checked: int, clipped: int) -> None:
        self.checked += checked
        if clipped:
            self.clipped[fmt] = self.clipped.get(fmt, 0) + clipped

    @property
    def total_clipped(self) -> int:
        """Elements clipped across every format."""
        return sum(self.clipped.values())

    def merge(self, other: "SaturationStats") -> None:
        """Fold another stats object into this one."""
        self.checked += other.checked
        for fmt, count in other.clipped.items():
            self.clipped[fmt] = self.clipped.get(fmt, 0) + count

    def describe(self) -> str:
        """One-line summary, e.g. ``Q9.22: 3 clips / 1200 checked``."""
        if not self.clipped:
            return f"no saturation ({self.checked} values checked)"
        parts = ", ".join(
            f"{fmt.describe()}: {count}"
            for fmt, count in sorted(
                self.clipped.items(), key=lambda item: -item[1]
            )
        )
        return f"{parts} clips / {self.checked} checked"


class SegmentedStats:
    """The sink of several populations stepped as one array.

    A fused block's arrays hold each member population in the columns
    ``lo:hi`` of their last axis, and each member keeps its own
    :class:`SaturationStats`. Every array a block step screens spans
    all ``width`` columns, so a record of ``checked`` values is
    ``checked // width`` per column and splits by member size exactly;
    the scan that finds a clip (:func:`fx_saturate`, still the only
    clip counter) counts it once per entry of :attr:`segments`.
    """

    def __init__(
        self, segments: Sequence[Tuple[int, int, SaturationStats]]
    ) -> None:
        #: ``(lo, hi, stats)`` per member, tiling ``0:width``.
        self.segments = tuple(segments)
        self.width = sum(hi - lo for lo, hi, _ in self.segments)

    def record(self, fmt: FixedFormat, checked: int, clipped: int) -> None:
        per_column, rest = divmod(checked, self.width)
        if clipped or rest:
            raise FixedPointError(
                f"a block of {self.width} columns cannot split a record of "
                f"{checked} checked / {clipped} clipped values by member"
            )
        for lo, hi, stats in self.segments:
            stats.checked += per_column * (hi - lo)


#: The process-wide stats sink; ``None`` keeps the hot path untouched.
_ACTIVE_SINK: Optional[SaturationStats] = None


class observe_saturation:
    """Route all saturation accounting into ``stats``.

    Hardware runtimes wrap each step in this context so a whole run's
    clip counts accumulate in one :class:`SaturationStats`. A class
    rather than a generator: it is entered once per step.
    """

    __slots__ = ("stats", "previous")

    def __init__(self, stats: SaturationStats):
        self.stats = stats

    def __enter__(self) -> SaturationStats:
        global _ACTIVE_SINK
        self.previous = _ACTIVE_SINK
        _ACTIVE_SINK = self.stats
        return self.stats

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE_SINK
        _ACTIVE_SINK = self.previous


def fx_saturate(raw: RawLike, fmt: FixedFormat) -> RawLike:
    """Saturate raw values to a format's range, with accounting: the one
    saturation routine, scalar and vector, that every helper and the
    membrane truncation write-back (Section IV-B1) go through.

    Counts are exact: every call records the values checked and the
    number actually clipped, per format. An array already inside
    ``[raw_min, raw_max]`` — all but a handful of calls on the registry
    workloads — is screened by its two extremes and **returned itself,
    not copied**; a caller that stores the result must own ``raw``
    (every ``fx_*`` helper passes a fresh or scratch array). Only an
    out-of-range array pays the compare/count/clip passes, and gets a
    clipped copy back; under a :class:`SegmentedStats` sink that count
    is taken per column segment, one record per member.
    """
    lo, hi = fmt.raw_min, fmt.raw_max
    sink = _ACTIVE_SINK
    if not isinstance(raw, np.ndarray):
        clipped = min(max(int(raw), lo), hi)
        if sink is not None:
            sink.record(fmt, 1, int(clipped != raw))
        return clipped
    if raw.size == 0 or (raw.min() >= lo and raw.max() <= hi):
        if sink is not None:
            sink.record(fmt, raw.size, 0)
        return raw
    if sink is not None:
        outside = (raw > hi) | (raw < lo)
        if sink.segments:
            for start, stop, member in sink.segments:
                columns = outside[..., start:stop]
                member.record(fmt, columns.size, int(np.count_nonzero(columns)))
        else:
            sink.record(fmt, raw.size, int(np.count_nonzero(outside)))
    return np.clip(raw, lo, hi)


def fx_saturate_enclosed(
    raw: np.ndarray, fmt: FixedFormat, lo: int, hi: int
) -> Tuple[np.ndarray, int, int]:
    """Saturate an array the caller has enclosed in ``[lo, hi]``.

    ``lo``/``hi`` are Python ints (no wrap) bounding the values the
    array would hold in exact arithmetic. An enclosure inside the
    format proves the array in range — a scan could only find
    ``raw.size`` checked, none clipped — and such a point need not come
    here at all: the caller keeps its array and reports the count
    through :func:`fx_record_proved`. This is the door for every other
    point. It goes through :func:`fx_saturate`, so counts stay
    exact and that routine stays the only one that scans an array or
    counts a clip.

    Returns ``(array, lo, hi)`` with the enclosure of the result. A
    product is shifted right by ``frac_bits`` before it gets here, so
    ends within ``±2**(63 - frac_bits)`` mean the unshifted product
    fitted int64 and the result's enclosure is the clipped one. Past
    that the array holds whatever numpy's wrapped arithmetic computed,
    and the result is only known to lie in the format.
    """
    raw_min, raw_max = fmt.raw_min, fmt.raw_max
    wrap = 1 << (63 - fmt.frac_bits)
    if lo < -wrap or hi >= wrap:
        lo, hi = raw_min, raw_max
    else:
        lo = min(max(lo, raw_min), raw_max)
        hi = max(min(hi, raw_max), raw_min)
    return fx_saturate(raw, fmt), lo, hi


def fx_record_proved(fmt: FixedFormat, count: int) -> None:
    """Record ``count`` values an enclosure proved inside ``fmt``.

    The accounting half of a range proof: exactly what scanning those
    values would have recorded, ``count`` checked and none clipped.
    """
    if _ACTIVE_SINK is not None:
        _ACTIVE_SINK.record(fmt, count, 0)


def fx_from_float(value, fmt: FixedFormat) -> RawLike:
    """Quantise a float (or float array) to raw fixed-point integers.

    Rounds to nearest and saturates to the format range. The two paths
    break ``k + 0.5`` ties differently, and both rules are pinned
    (``tests/fixedpoint/test_fixed.py``):

    * a **scalar** rounds ties *away from zero* (a hardware rounder on
      sign-magnitude constants): ``-0.625`` in Q13.2 is raw ``-3``;
    * an **array** rounds ties *up*, ``floor(x * scale + 0.5)``:
      ``-0.625`` in Q13.2 is raw ``-2``. This is the path every
      simulated input takes, so spike digests depend on it.
    """
    # Pre-clamp to twice the representable range so the float->int cast
    # cannot overflow int64 for huge inputs (e.g. a saturating exp);
    # the clamped value still counts as a clip.
    lo, hi = 2.0 * fmt.min_value - 1.0, 2.0 * fmt.max_value + 1.0
    if isinstance(value, np.ndarray):
        arr = np.asarray(value, dtype=np.float64)
        # min()/max() propagate NaN, so one test screens NaN, +/-inf and
        # out-of-clamp values; finite in-clamp arrays skip the copies.
        if arr.size and not (arr.min() >= lo and arr.max() <= hi):
            arr = np.clip(
                np.nan_to_num(arr, nan=0.0, posinf=hi, neginf=lo), lo, hi
            )
        raw = np.floor(arr * fmt.scale + 0.5).astype(np.int64)
        return fx_saturate(raw, fmt)
    clamped = min(max(float(value), lo), hi)
    if clamped != clamped:  # NaN
        clamped = 0.0
    scaled = clamped * fmt.scale
    raw = int(np.floor(scaled + 0.5)) if scaled >= 0 else -int(np.floor(-scaled + 0.5))
    return fx_saturate(raw, fmt)


def fx_to_float(raw: RawLike, fmt: FixedFormat):
    """Convert raw fixed-point integers back to floats."""
    if isinstance(raw, np.ndarray):
        return raw.astype(np.float64) / fmt.scale
    return float(raw) / fmt.scale


def fx_add(a: RawLike, b: RawLike, fmt: FixedFormat) -> RawLike:
    """Saturating fixed-point addition of two raw values."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        raw = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        return fx_saturate(raw, fmt)
    return fx_saturate(int(a) + int(b), fmt)


def fx_sub(a: RawLike, b: RawLike, fmt: FixedFormat) -> RawLike:
    """Saturating fixed-point subtraction ``a - b``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        raw = np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)
        return fx_saturate(raw, fmt)
    return fx_saturate(int(a) - int(b), fmt)


def fx_neg(a: RawLike, fmt: FixedFormat) -> RawLike:
    """Saturating fixed-point negation."""
    if isinstance(a, np.ndarray):
        return fx_saturate(-np.asarray(a, dtype=np.int64), fmt)
    return fx_saturate(-int(a), fmt)


def fx_mul(a: RawLike, b: RawLike, fmt: FixedFormat) -> RawLike:
    """Saturating fixed-point multiply with truncation toward -inf.

    The full-precision product has ``2 * frac_bits`` fractional bits;
    the hardware truncates back to ``frac_bits`` by an arithmetic right
    shift, which this helper reproduces exactly.

    The vector path goes through Python-object arithmetic only when the
    operands risk overflowing int64 (never the case for the 32-bit
    formats used here, whose products fit in 63 bits).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
        raw = prod >> fmt.frac_bits
        return fx_saturate(raw, fmt)
    raw = (int(a) * int(b)) >> fmt.frac_bits
    return fx_saturate(raw, fmt)

