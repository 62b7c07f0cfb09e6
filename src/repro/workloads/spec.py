"""Workload specifications: the rows of Table I."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.solvers import SOLVER_NAMES


def validate_scale(scale) -> float:
    """``scale`` as a positive finite float, or a field-level error.

    Every scaled-build entry point funnels through this, so a workload
    built with ``scale="0.1"`` or ``scale=-1`` fails with a
    :class:`~repro.errors.ConfigurationError` naming the field instead
    of a ``TypeError`` from an arithmetic comparison deep in a builder.
    """
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ConfigurationError(f"scale must be a number, got {scale!r}")
    if not math.isfinite(scale) or scale <= 0:
        raise ConfigurationError(
            f"scale must be positive and finite, got {scale}"
        )
    return float(scale)


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table I row: structure, neuron model, solver, framework."""

    name: str
    paper_neurons: int
    paper_synapses: int
    model_name: str
    solver: str  #: "Euler" or "RKF45" (the Notes column)
    framework: str  #: "NEST" (CPU) or "GeNN" (the two GPU rows)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"workload name must be a non-empty string, got {self.name!r}"
            )
        for key in ("paper_neurons", "paper_synapses"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"workload {self.name!r}: {key} must be an integer, "
                    f"got {value!r}"
                )
        if self.paper_neurons <= 0 or self.paper_synapses <= 0:
            raise ConfigurationError(
                f"workload {self.name!r}: paper neuron/synapse counts "
                f"must be positive, got {self.paper_neurons} / "
                f"{self.paper_synapses}"
            )
        if self.solver not in SOLVER_NAMES:
            choices = " or ".join(repr(name) for name in SOLVER_NAMES)
            raise ConfigurationError(
                f"workload {self.name!r}: unknown solver {self.solver!r} "
                f"(choose {choices})"
            )
        if self.framework not in ("NEST", "GeNN"):
            raise ConfigurationError(
                f"workload {self.name!r}: unknown framework "
                f"{self.framework!r} (choose 'NEST' or 'GeNN')"
            )

    def scaled_neurons(self, scale: float) -> int:
        """Neuron count at the given scale (>= 20 to stay meaningful)."""
        scale = validate_scale(scale)
        return max(20, int(round(self.paper_neurons * scale)))

    def scaled_synapses(self, scale: float) -> int:
        """Synapse count at the given scale.

        Synapses scale with the *square* of the neuron scale so the
        connection probability p stays constant across scales. That is
        all constant p keeps: fan-in (p times the presynaptic count)
        grows linearly with scale, and weights do not shrink with it,
        so each neuron's summed input grows in variance. Mean firing
        rates stay close; input statistics do not.
        """
        n_ratio = self.scaled_neurons(scale) / self.paper_neurons
        return max(10, int(round(self.paper_synapses * n_ratio * n_ratio)))

    def connection_probability(self) -> float:
        """Mean pairwise connection probability implied by the row."""
        return min(1.0, self.paper_synapses / self.paper_neurons**2)

    def fan_in(self) -> float:
        """Average synapses per neuron."""
        return self.paper_synapses / self.paper_neurons

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.paper_neurons} neurons, "
            f"{self.paper_synapses} synapses, {self.model_name} "
            f"({self.solver}, {self.framework})"
        )


def scaled_probability(spec: WorkloadSpec, scale: float) -> float:
    """Connection probability to use at a given scale.

    Keeping p constant preserves per-neuron fan-in *fraction*; for very
    small scales the probability is floored so networks stay connected.
    """
    p = spec.connection_probability()
    return min(1.0, max(p, 2.0 / math.sqrt(spec.scaled_neurons(scale))))
