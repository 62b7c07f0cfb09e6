"""The Network container: populations, projections, and stimuli.

A :class:`Network` is a pure description — no state. It offers the
PyNN-flavoured builder API the paper's front-end discussion assumes
(Section VII-B): create populations, connect them, attach stimuli.
Backends materialise the state when a :class:`~repro.network.simulator.
Simulator` runs the network.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.models.base import NeuronModel
from repro.models.registry import create_model
from repro.network.population import Population
from repro.network.projection import Projection, connect
from repro.network.stimulus import Stimulus


class Network:
    """A spiking neural network description."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.populations: Dict[str, Population] = {}
        self.projections: List[Projection] = []
        self.stimuli: List[Stimulus] = []
        self.plasticity_rules: List = []

    # -- builders -----------------------------------------------------------

    def add_population(
        self, name: str, n: int, model, **model_kwargs
    ) -> Population:
        """Create and register a population.

        ``model`` is a :class:`~repro.models.base.NeuronModel` instance
        or a registered model name (resolved via the model registry).
        """
        if name in self.populations:
            raise ConfigurationError(f"population {name!r} already exists")
        if not isinstance(model, NeuronModel):
            model = create_model(model, **model_kwargs)
        population = Population(name, n, model)
        self.populations[name] = population
        return population

    def add_projection(self, projection: Projection) -> Projection:
        """Register an already-built projection."""
        for endpoint in (projection.pre, projection.post):
            if self.populations.get(endpoint.name) is not endpoint:
                raise ConfigurationError(
                    f"population {endpoint.name!r} is not part of this network"
                )
        self.projections.append(projection)
        return projection

    def connect(
        self,
        pre: str,
        post: str,
        probability: float = 1.0,
        weight: float = 0.1,
        syn_type: int = 0,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> Projection:
        """Random connectivity between two registered populations."""
        projection = connect(
            self._population(pre),
            self._population(post),
            probability=probability,
            weight=weight,
            syn_type=syn_type,
            rng=rng,
            **kwargs,
        )
        self.projections.append(projection)
        return projection

    def add_plasticity(self, projection: Projection, rule) -> None:
        """Make a projection plastic under the given rule.

        The rule (e.g. :class:`repro.plasticity.PairSTDP`) is attached
        to the projection and updated by the simulator during the
        synapse-calculation phase of every step. A projection takes one
        rule: a second would step its weights twice per step.
        """
        if projection not in self.projections:
            raise ConfigurationError(
                f"projection {projection.name!r} is not part of this network"
            )
        if any(other.projection is projection for other in self.plasticity_rules):
            raise ConfigurationError(
                f"projection {projection.name!r} is already plastic"
            )
        rule.attach(projection)
        self.plasticity_rules.append(rule)

    def add_stimulus(self, stimulus: Stimulus) -> Stimulus:
        """Attach an external stimulus source."""
        if self.populations.get(stimulus.target.name) is not stimulus.target:
            raise ConfigurationError(
                f"stimulus target {stimulus.target.name!r} is not part of "
                "this network"
            )
        self.stimuli.append(stimulus)
        return stimulus

    # -- queries --------------------------------------------------------------

    def _population(self, name: str) -> Population:
        try:
            return self.populations[name]
        except KeyError:
            known = ", ".join(self.populations) or "<none>"
            raise ConfigurationError(
                f"unknown population {name!r}; known: {known}"
            ) from None

    @property
    def n_neurons(self) -> int:
        """Total neuron count across populations."""
        return sum(p.n for p in self.populations.values())

    @property
    def n_synapses(self) -> int:
        """Total synapse count across projections."""
        return sum(p.n_synapses for p in self.projections)

    def max_delay(self) -> int:
        """Largest synaptic delay in the network (>= 1)."""
        if not self.projections:
            return 1
        return max(p.max_delay for p in self.projections)

    def projections_into(self, population: str) -> List[Projection]:
        """Projections whose post-population has the given name."""
        return [p for p in self.projections if p.post.name == population]

    def projections_from(self, population: str) -> List[Projection]:
        """Projections whose pre-population has the given name."""
        return [p for p in self.projections if p.pre.name == population]

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, neurons={self.n_neurons}, "
            f"synapses={self.n_synapses}, stimuli={len(self.stimuli)})"
        )
