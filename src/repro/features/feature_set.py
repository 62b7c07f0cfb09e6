"""Validated combinations of biologically common features.

A :class:`FeatureSet` is an immutable set of :class:`~repro.features.base.Feature`
members that has passed the combination rules of Section IV-A:

* exactly one membrane decay (EXD or LID);
* at most one input-accumulation kernel (CUB, COBE, or COBA);
* REV requires a conductance-based kernel (it "cannot be used w/ CUB");
* at most one spike initiation (QDI or EXI);
* SBT requires ADT (its update embeds the adaptation decay);
* RR excludes ADT (each owns ``w``, under different couplings).

Feature sets are hashable and iterate in canonical Table II order, so
they can key caches (e.g. compiled microprograms) deterministically.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Union

from repro.errors import FeatureConflictError
from repro.features.base import CONFLICTS, REQUIRES, CATEGORY_OF, Feature, FeatureCategory

FeatureLike = Union[Feature, str]


def _coerce(feature: FeatureLike) -> Feature:
    if isinstance(feature, Feature):
        return feature
    try:
        return Feature[str(feature).upper()]
    except KeyError:
        raise FeatureConflictError(f"unknown feature {feature!r}") from None


class FeatureSet:
    """An immutable, validated set of biologically common features."""

    __slots__ = ("_features",)

    def __init__(self, features: Iterable[FeatureLike]):
        members = frozenset(_coerce(f) for f in features)
        self._validate(members)
        self._features = members

    @staticmethod
    def _validate(members: FrozenSet[Feature]) -> None:
        decays = members & {Feature.EXD, Feature.LID}
        if not decays:
            raise FeatureConflictError(
                "a feature set needs a membrane decay (EXD or LID)"
            )
        for pair in CONFLICTS:
            if pair <= members:
                a, b = sorted(pair, key=lambda f: f.value)
                raise FeatureConflictError(
                    f"features {a.value} and {b.value} are mutually exclusive"
                )
        for feature, prerequisites in REQUIRES.items():
            if feature in members and not members & set(prerequisites):
                names = " or ".join(p.value for p in prerequisites)
                raise FeatureConflictError(
                    f"feature {feature.value} requires {names}"
                )

    # -- set protocol ---------------------------------------------------

    def __contains__(self, feature: FeatureLike) -> bool:
        return _coerce(feature) in self._features

    def __iter__(self) -> Iterator[Feature]:
        # Canonical Table II ordering for deterministic iteration.
        return iter(sorted(self._features, key=list(Feature).index))

    def __len__(self) -> int:
        return len(self._features)

    def __eq__(self, other) -> bool:
        if isinstance(other, FeatureSet):
            return self._features == other._features
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._features)

    def __repr__(self) -> str:
        names = "+".join(f.value for f in self)
        return f"FeatureSet({names})"

    # -- queries ----------------------------------------------------------

    @property
    def features(self) -> FrozenSet[Feature]:
        """The underlying frozen set of features."""
        return self._features

    def with_features(self, *extra: FeatureLike) -> "FeatureSet":
        """A new validated set with ``extra`` features added."""
        return FeatureSet(list(self._features) + [_coerce(f) for f in extra])

    def without(self, *removed: FeatureLike) -> "FeatureSet":
        """A new validated set with the given features removed."""
        gone = {_coerce(f) for f in removed}
        return FeatureSet(self._features - gone)

    def in_category(self, category: FeatureCategory) -> FrozenSet[Feature]:
        """Features of this set belonging to the given Table II category."""
        return frozenset(
            f for f in self._features if CATEGORY_OF[f] is category
        )

    @property
    def membrane_decay(self) -> Feature:
        """The (single, mandatory) membrane-decay feature."""
        (decay,) = self.in_category(FeatureCategory.MEMBRANE_DECAY)
        return decay

    @property
    def accumulation_kernel(self) -> Feature:
        """The input-accumulation kernel; defaults to CUB when unset.

        Table III marks every model with exactly one of CUB/COBE/COBA,
        but a bare decay-only set behaves as current-based.
        """
        kernels = self._features & {Feature.CUB, Feature.COBE, Feature.COBA}
        if kernels:
            (kernel,) = kernels
            return kernel
        return Feature.CUB

    @property
    def uses_conductance(self) -> bool:
        """Whether the set carries per-synapse-type conductance state."""
        return bool(self._features & {Feature.COBE, Feature.COBA})

    @property
    def spike_initiation(self):
        """QDI, EXI, or None for instant (threshold) initiation."""
        initiations = self.in_category(FeatureCategory.SPIKE_INITIATION)
        if initiations:
            (initiation,) = initiations
            return initiation
        return None

    def threshold(self, parameters) -> float:
        """The firing voltage of ``parameters``: ``v_theta`` under a
        non-instant spike initiation (QDI/EXI), ``theta`` otherwise."""
        if self.spike_initiation is not None:
            return parameters.v_theta
        return parameters.theta

    @property
    def w_owner(self) -> Optional[Feature]:
        """The feature whose update owns ``w``: RR (reversal-coupled,
        Equation 8), SBT (which embeds ADT's decay, Equation 6), ADT,
        or None. RR excludes ADT, so at most one update applies."""
        for feature in (Feature.RR, Feature.SBT, Feature.ADT):
            if feature in self._features:
                return feature
        return None

    @property
    def has_adaptation_state(self) -> bool:
        """Whether a ``w`` state variable exists (ADT, SBT, or RR)."""
        return self.w_owner is not None

    def state_variables(self, n_synapse_types: int = 2):
        """Names of per-neuron state variables this combination needs.

        Always includes ``v``. Conductance kernels add ``g`` per synapse
        type; COBA additionally tracks ``y``; ADT/SBT/RR add ``w``; RR
        adds ``r``; AR adds the refractory counter ``cnt``.
        """
        names = ["v"]
        if self.uses_conductance:
            names.extend(f"g{i}" for i in range(n_synapse_types))
        if Feature.COBA in self._features:
            names.extend(f"y{i}" for i in range(n_synapse_types))
        if self.has_adaptation_state:
            names.append("w")
        if Feature.RR in self._features:
            names.append("r")
        if Feature.AR in self._features:
            names.append("cnt")
        return tuple(names)
