"""External stimulus generators (the stimulus-generation phase).

"This stage generates the spikes forged by a pattern or a random number
generator, and injects them to the network to mimic external stimulus"
(Section II-C). Two generators are provided, matching the paper's two
configurations: :class:`PoissonStimulus` (random) and
:class:`PatternStimulus` (pre-defined pattern). Both are immutable
*descriptions*; everything that changes while a simulation runs lives
in the :class:`StimulusPlan` its ``Simulator`` compiles from them, so
two simulators can share one network.

**Stream addressing** (DESIGN.md 3k). Stimulus ``i`` draws from its
own stream ``SeedSequence(seed, spawn_key=(i,))``, and uniform number
``step * n + j`` of it belongs to target ``j`` (of ``n``) at ``step``.
``PCG64.advance`` reaches any position in O(log), so a block of steps
is one contiguous draw and a resumed run seeks to ``step * n``: the
seed is the whole random state, and the block length
(:data:`BLOCK_STEPS`) changes no spike.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.population import Population

#: Steps drawn per block; a buffer size, not part of the stream.
BLOCK_STEPS = 16
#: Uniforms sampled per pass over a plan's scratch (16 B each): cache
#: resident however large the block, under malloc's 128 kB mmap threshold.
CHUNK_DRAWS = 12288
#: Bins of the sampler's guide table: the uniform's top 12 bits.
GUIDE_BINS = 4096

_NO_EVENTS = np.empty(0, dtype=np.int64)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return value


class Stimulus:
    """A source of externally forged spikes targeting one population."""

    def __init__(self, target: Population, weight: float, syn_type: int = 0):
        if isinstance(syn_type, bool) or not isinstance(syn_type, Integral):
            raise ConfigurationError(
                f"syn_type must be an integer, got {syn_type!r}"
            )
        if not 0 <= syn_type < target.n_synapse_types:
            raise ConfigurationError(
                f"synapse type {syn_type} out of range for {target.name!r}"
            )
        self.target = target
        self.weight = _finite(weight, "stimulus weight")
        self.syn_type = syn_type


class BinomialSampler:
    """Exact inverse-CDF sampling of Binomial(``n``, ``p``) by table.

    :meth:`sample` equals ``np.searchsorted(cdf, u, "right")`` element
    for element. A uniform's top bits index a guide table that holds
    the answer wherever a whole bin lies between two CDF values; only
    the draws whose bin contains a CDF value (a fraction of at most
    ``n / GUIDE_BINS``) are searched, so the bulk has no
    data-dependent branch. Entries of the CDF that are ``>= 1`` can
    never be reached by ``u < 1`` and are dropped.
    """

    def __init__(self, n: int, p: float):
        if p >= 1.0:
            cdf = np.zeros(n)
        elif p <= 0.0 or n == 0:
            cdf = np.empty(0)
        else:
            k = np.arange(1, n)
            log_pmf = np.zeros(n)
            log_pmf[1:] = np.cumsum(
                np.log((n - k + 1) / k) + (math.log(p) - math.log1p(-p))
            )
            cdf = np.cumsum(np.exp(log_pmf + n * math.log1p(-p)))
            cdf = cdf[:np.searchsorted(cdf, 1.0)]
        #: ``P(X <= k)`` for ``k = 0 .. len(cdf) - 1``, all below 1.
        self.cdf = cdf
        # Scaling by a power of two is exact, so comparing scaled
        # uniforms against the scaled CDF decides as the unscaled do.
        self._scaled_cdf = cdf * GUIDE_BINS
        bins = self._scaled_cdf.astype(np.intp)
        #: Count dtype: the smallest that holds ``len(cdf)`` and a
        #: sentinel (``uint8`` for every ``n_sources`` below 254).
        self.dtype = np.min_scalar_type(cdf.size + 1)
        self._search = np.iinfo(self.dtype).max
        # guide[b] = #{k: bins[k] < b}, then the bins that hold a CDF
        # value are marked for the search.
        edges = np.concatenate(([-1], bins, [GUIDE_BINS - 1]))
        self._guide = np.repeat(
            np.arange(cdf.size + 1, dtype=self.dtype), edges[1:] - edges[:-1]
        )
        self._guide[bins] = self._search

    def sample(self, uniforms: np.ndarray, index: np.ndarray, out: np.ndarray):
        """``out[i] = #{k: cdf[k] <= uniforms[i]}``; ``uniforms`` is
        left scaled by ``GUIDE_BINS`` and ``index`` (intp) overwritten."""
        np.multiply(uniforms, GUIDE_BINS, out=uniforms)
        np.copyto(index, uniforms, casting="unsafe")
        self._guide.take(index, out=out, mode="clip")
        search = np.flatnonzero(out == self._search)
        if search.size:
            out[search] = np.searchsorted(self._scaled_cdf, uniforms[search], "right")


class PoissonStimulus(Stimulus):
    """Independent Poisson spike trains driving a population.

    Each target neuron receives an external Poisson train of the given
    rate; each generated spike deposits ``weight`` into the neuron's
    accumulated input for the current step. ``n_sources`` independent
    trains per neuron model a population of virtual input fibres, so a
    target's spikes per step are Binomial(``n_sources``, ``p_spike``).
    ``neuron_slice`` restricts the targets (ascending; may be empty).
    """

    def __init__(
        self,
        target: Population,
        rate_hz: float,
        weight: float,
        dt: float,
        syn_type: int = 0,
        n_sources: int = 1,
        neuron_slice: Optional[slice] = None,
    ):
        super().__init__(target, weight, syn_type)
        self.rate_hz = _finite(rate_hz, "rate")
        self.dt = _finite(dt, "dt")
        if self.rate_hz < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate_hz}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if not isinstance(n_sources, (int, np.integer)) or n_sources < 0:
            raise ConfigurationError(
                f"n_sources must be a non-negative integer, got {n_sources!r}"
            )
        self.n_sources = int(n_sources)
        #: The target neurons, ascending: target ``j`` is ``targets[j]``.
        self.targets = range(*(neuron_slice or slice(None)).indices(target.n))
        if self.targets.step < 0:
            raise ConfigurationError(f"neuron_slice must ascend, got {neuron_slice!r}")

    @property
    def p_spike(self) -> float:
        """Per-source spike probability in one time step (a rate of
        ``1 / dt`` or more clamps to 1: every source fires every step)."""
        return min(1.0, self.rate_hz * self.dt)

    def generate(self, feed: "_PoissonFeed", step: int) -> None:
        """The block draw: ``feed.block[k, j]`` becomes the count of
        target ``j`` at ``step + k``, one contiguous run of the stream."""
        feed.counts(step * len(self.targets), feed.block.reshape(-1))


class PatternStimulus(Stimulus):
    """A pre-defined spike pattern: explicit (step, neuron) events.

    ``events`` maps a time step to a sequence of target neuron indices
    that receive one input spike of ``weight`` at that step (a repeated
    index receives one per mention). The pattern repeats with
    ``period`` when given; every event step must then lie inside it.
    """

    def __init__(
        self,
        target: Population,
        events: Dict[int, Sequence[int]],
        weight: float,
        syn_type: int = 0,
        period: Optional[int] = None,
    ):
        super().__init__(target, weight, syn_type)
        if period is not None and period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self.period = period
        self._events = {}
        for step, idx in events.items():
            step, idx = int(step), np.asarray(idx)
            if step < 0 or (period is not None and step >= period):
                raise ConfigurationError(
                    f"pattern step {step} is never reached (period {period})"
                )
            if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
                raise ConfigurationError(
                    f"pattern neuron indices at step {step} must be a flat "
                    f"list of integers, got {idx.tolist()!r}"
                )
            if idx.size and (idx.min() < 0 or idx.max() >= target.n):
                raise ConfigurationError(f"pattern index out of range at step {step}")
            self._events[step] = idx.astype(np.int64, copy=False)

    def generate(self, step: int) -> np.ndarray:
        """The per-step lookup: target indices spiking at ``step``."""
        key = step % self.period if self.period is not None else step
        return self._events.get(key, _NO_EVENTS)


class _PoissonFeed:
    """Plan state of one Poisson stimulus: stream, sampler, count block."""

    def __init__(self, stimulus, seed, key, ring, scratch):
        targets = stimulus.targets
        self.stimulus, self.ring = stimulus, ring
        self.cells = slice(targets.start, targets.stop, targets.step)
        self.sampler = BinomialSampler(stimulus.n_sources, stimulus.p_spike)
        self.block = np.empty((BLOCK_STEPS, len(targets)), self.sampler.dtype)
        self.scaled = np.empty(len(targets))
        #: Step of ``block[0]``; starts where no step's offset fits.
        self.start = -BLOCK_STEPS
        self._bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,)))
        self._random = np.random.Generator(self._bits).random
        self._position = 0
        self._uniforms, self._index = scratch
        #: Uniforms drawn so far.
        self.drawn = 0

    def counts(self, position: int, out: np.ndarray) -> None:
        """Fill 1-D ``out`` from uniforms ``position, position + 1, ...``."""
        if position != self._position:
            self._bits.advance((position - self._position) % (1 << 128))
        for start in range(0, out.size, self._uniforms.size):
            part = out[start:start + self._uniforms.size]
            uniforms = self._uniforms[:part.size]
            self._random(out=uniforms)
            self.sampler.sample(uniforms, self._index[:part.size], part)
        self._position = position + out.size
        self.drawn += out.size

    def inject(self, step: int) -> int:
        offset = step - self.start
        if not 0 <= offset < len(self.block):
            self.stimulus.generate(self, step)
            self.start, offset = step, 0
        counts = self.block[offset]
        events = int(np.count_nonzero(counts))
        if events:
            # Two same-dtype passes: a mixed-dtype multiply would
            # allocate numpy's 64 kB iterator buffers on every call.
            np.copyto(self.scaled, counts)
            np.multiply(self.scaled, self.stimulus.weight, out=self.scaled)
            self.ring.enqueue_now(
                self.cells, self.scaled, self.stimulus.syn_type, events
            )
        return events


class _PatternFeed:
    """Plan state of one pattern stimulus: its target's ring."""

    def __init__(self, stimulus, ring):
        self.stimulus, self.ring = stimulus, ring

    def inject(self, step: int) -> int:
        idx = self.stimulus.generate(step)
        if idx.size:
            # One scalar weight, added once per mention of a neuron.
            weight = np.float64(self.stimulus.weight)
            self.ring.enqueue_now(idx, weight, self.stimulus.syn_type)
        return idx.size


class StimulusPlan:
    """The stimulus phase of one simulator, compiled once (at its
    first step, so constructing a simulator stays cheap).

    ``rings`` maps population names to the delay rings input is added
    to. ``seed`` is the plan's whole random state: a checkpoint stores it.
    """

    def __init__(
        self,
        stimuli: Sequence[Stimulus],
        rings: Mapping[str, object],
        seed: int,
    ):
        self._stimuli = tuple(stimuli)
        self._rings = rings
        self.restore(seed)

    def restore(self, seed: int) -> None:
        """Restart every stream from ``seed``, dropping drawn blocks."""
        self.seed = seed
        self._poisson = []
        #: Built by the first :meth:`inject`: ~0.3 ms cache-cold, a
        #: sixth of a 250-neuron network's set-up.
        self._feeds = None

    def _compile(self) -> list:
        scratch = np.empty(CHUNK_DRAWS), np.empty(CHUNK_DRAWS, dtype=np.intp)
        self._feeds = []
        for key, stimulus in enumerate(self._stimuli):
            ring = self._rings[stimulus.target.name]
            if isinstance(stimulus, PatternStimulus):
                self._feeds.append(_PatternFeed(stimulus, ring).inject)
                continue
            feed = _PoissonFeed(stimulus, self.seed, key, ring, scratch)
            if feed.block.size:
                self._poisson.append(feed)
                self._feeds.append(feed.inject)
        return self._feeds

    @property
    def uniforms_drawn(self) -> int:
        """Uniforms drawn so far, over every stimulus."""
        return sum(feed.drawn for feed in self._poisson)

    def inject(self, step: int) -> int:
        """Add ``step``'s external input to the rings' current buckets.

        Stimuli add in network order, after the synaptic arrivals already
        there. Returns the phase's operation count: targets hit at least once.
        """
        feeds = self._feeds if self._feeds is not None else self._compile()
        events = 0
        for feed in feeds:
            events += feed(step)
        return events
