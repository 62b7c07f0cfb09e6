"""Spike and state recording.

:class:`SpikeRecorder` collects (step, neuron) pairs per population —
the output format the Section VI-A validation compares between the
reference simulator and the hardware backends. :class:`StateRecorder`
samples selected state variables over time for plots and tests of
single-neuron behaviours (e.g. the membrane-decay shapes of Figure 4).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class SpikeRecord:
    """All spikes of one population as parallel step/neuron arrays."""

    steps: np.ndarray
    neurons: np.ndarray

    @property
    def n_spikes(self) -> int:
        return int(self.steps.size)

    def spike_pairs(self) -> set:
        """The spikes as a set of (step, neuron) tuples."""
        return set(zip(self.steps.tolist(), self.neurons.tolist()))

    def rate_hz(self, n_neurons: int, n_steps: int, dt: float) -> float:
        """Mean firing rate across the population."""
        duration = n_steps * dt
        if duration <= 0 or n_neurons <= 0:
            return 0.0
        return self.n_spikes / (n_neurons * duration)

    def spikes_of(self, neuron: int) -> np.ndarray:
        """Steps at which the given neuron fired."""
        return self.steps[self.neurons == neuron]


class SpikeRecorder:
    """Accumulates fired masks into per-population spike records."""

    def __init__(self) -> None:
        self._steps: Dict[str, List[np.ndarray]] = {}
        self._neurons: Dict[str, List[np.ndarray]] = {}
        self._counts: Dict[str, int] = {}

    def record(self, population: str, step: int, fired: np.ndarray) -> None:
        """Record the fired mask of one population at one step."""
        self.record_indices(population, step, np.nonzero(fired)[0])

    def record_indices(
        self, population: str, step: int, idx: np.ndarray
    ) -> None:
        """Record already-extracted fired indices (no mask scan)."""
        if idx.size == 0:
            return
        self._steps.setdefault(population, []).append(
            np.full(idx.size, step, dtype=np.int64)
        )
        self._neurons.setdefault(population, []).append(idx.astype(np.int64))
        self._counts[population] = self._counts.get(population, 0) + int(
            idx.size
        )

    def result(self, population: str) -> SpikeRecord:
        """The accumulated spikes of one population."""
        steps = self._steps.get(population, [])
        neurons = self._neurons.get(population, [])
        if not steps:
            empty = np.empty(0, dtype=np.int64)
            return SpikeRecord(empty, empty.copy())
        return SpikeRecord(np.concatenate(steps), np.concatenate(neurons))

    def populations(self) -> List[str]:
        """Names of populations that produced at least one spike."""
        return sorted(self._steps)

    def counts(self) -> Dict[str, int]:
        """Cumulative spike count per population (O(populations) reads).

        Maintained incrementally, so a reader between two runs of one
        simulator (the benchmark reads it after its warm-up prefix and
        again at the end) never concatenates the chunk lists.
        """
        return dict(self._counts)

    def total_spikes(self) -> int:
        """Total spikes across all populations."""
        return sum(self._counts.values())

    def digest(self) -> str:
        """SHA-256 over the full spike trains (bit-identity pinning).

        Two recorders whose digests match hold bit-identical spikes —
        the cheap stand-in for comparing the full trains across runs,
        processes and commits (``run``/``sweep`` stats, the ledger).
        """
        digest = hashlib.sha256()
        for population in self.populations():
            record = self.result(population)
            digest.update(population.encode("utf-8"))
            digest.update(record.steps.tobytes())
            digest.update(record.neurons.tobytes())
        return digest.hexdigest()

    def snapshot(self) -> Dict[str, tuple]:
        """Everything recorded so far as ``{population: (steps, neurons)}``."""
        out = {}
        for population in self._steps:
            record = self.result(population)
            out[population] = (record.steps, record.neurons)
        return out

    def load(self, snapshot: Dict[str, tuple]) -> None:
        """Replace the contents from a :meth:`snapshot` (resume support).

        Subsequent :meth:`record_indices` calls append after the loaded
        spikes, so a resumed run's recorder carries the full train.
        """
        self._steps = {}
        self._neurons = {}
        self._counts = {}
        for population, (steps, neurons) in snapshot.items():
            loaded = np.asarray(steps, dtype=np.int64).copy()
            self._steps[population] = [loaded]
            self._neurons[population] = [
                np.asarray(neurons, dtype=np.int64).copy()
            ]
            self._counts[population] = int(loaded.size)


@dataclass
class StateRecorder:
    """Samples chosen state variables of chosen neurons over time.

    ``every`` sets the sampling interval in simulator steps: 1 (the
    default) samples every step, N keeps the first of every N offered
    samples — long runs can record coarse traces without paying full
    per-step sampling cost or memory.
    """

    population: str
    variables: Sequence[str]
    neurons: Sequence[int] = field(default_factory=lambda: [0])
    every: int = 1
    traces: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    #: Samples offered by the simulator so far (including skipped ones).
    samples_offered: int = 0

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")

    def sample(self, state: Dict[str, np.ndarray]) -> None:
        """Append the tracked variables (honouring the interval)."""
        offered = self.samples_offered
        self.samples_offered = offered + 1
        if offered % self.every:
            return
        idx = np.asarray(self.neurons, dtype=np.int64)
        for var in self.variables:
            self.traces.setdefault(var, []).append(state[var][idx].copy())

    def samples_kept(self) -> int:
        """Number of samples actually recorded so far."""
        if not self.traces:
            return 0
        return max(len(chunks) for chunks in self.traces.values())

    def trace(self, variable: str) -> np.ndarray:
        """A (steps, len(neurons)) array for one variable."""
        chunks = self.traces.get(variable, [])
        if not chunks:
            return np.empty((0, len(self.neurons)))
        return np.stack(chunks)
