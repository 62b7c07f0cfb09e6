"""Populations: homogeneous groups of neurons sharing one model.

Mirrors PyNN's ``sim.Population()`` (Section VII-B): a population has a
name, a size, and a neuron model instance whose parameters apply to all
members. Backends own the actual state arrays; the population is the
description.
"""

from __future__ import annotations

from numbers import Integral

from repro.errors import ConfigurationError
from repro.models.base import NeuronModel


class Population:
    """A named group of ``n`` neurons simulated with one model."""

    def __init__(self, name: str, n: int, model: NeuronModel):
        if isinstance(n, bool) or not isinstance(n, Integral):
            raise ConfigurationError(
                f"population {name!r}: size n must be an integer, got {n!r}"
            )
        if n <= 0:
            raise ConfigurationError(f"population size must be positive, got {n}")
        if not name:
            raise ConfigurationError("population name must be non-empty")
        self.name = name
        self.n = n
        self.model = model

    @property
    def n_synapse_types(self) -> int:
        """Synapse types of the underlying model."""
        return self.model.parameters.n_synapse_types

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Population({self.name!r}, n={self.n}, "
            f"model={self.model.name})"
        )
