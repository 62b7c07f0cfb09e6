"""Feature and category enums (paper Table II).

The 12 biologically common features fall into five categories according
to how they affect a neuron's behaviour: membrane decay, input spike
accumulation, spike initiation, spike-triggered current, and refractory.
"""

from __future__ import annotations

import enum


class FeatureCategory(enum.Enum):
    """The five behavioural categories of Table II."""

    MEMBRANE_DECAY = "Membrane Decay"
    INPUT_SPIKE_ACCUMULATION = "Input Spike Accumulation"
    SPIKE_INITIATION = "Spike Initiation"
    SPIKE_TRIGGERED_CURRENT = "Spike-Triggered Current"
    REFRACTORY = "Refractory"


class Feature(enum.Enum):
    """The 12 biologically common features, by paper abbreviation."""

    EXD = "EXD"  # exponential membrane decay
    LID = "LID"  # linear membrane decay
    CUB = "CUB"  # current-based input accumulation
    COBE = "COBE"  # conductance-based input, exponential kernel
    COBA = "COBA"  # conductance-based input, alpha-function kernel
    REV = "REV"  # reversal voltage
    QDI = "QDI"  # quadratic spike initiation
    EXI = "EXI"  # exponential spike initiation
    ADT = "ADT"  # adaptation (spike-triggered current)
    SBT = "SBT"  # subthreshold oscillation
    AR = "AR"  # absolute refractory
    RR = "RR"  # relative refractory

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Category of each feature (the rows of Table II).
CATEGORY_OF = {
    Feature.EXD: FeatureCategory.MEMBRANE_DECAY,
    Feature.LID: FeatureCategory.MEMBRANE_DECAY,
    Feature.CUB: FeatureCategory.INPUT_SPIKE_ACCUMULATION,
    Feature.COBE: FeatureCategory.INPUT_SPIKE_ACCUMULATION,
    Feature.COBA: FeatureCategory.INPUT_SPIKE_ACCUMULATION,
    Feature.REV: FeatureCategory.INPUT_SPIKE_ACCUMULATION,
    Feature.QDI: FeatureCategory.SPIKE_INITIATION,
    Feature.EXI: FeatureCategory.SPIKE_INITIATION,
    Feature.ADT: FeatureCategory.SPIKE_TRIGGERED_CURRENT,
    Feature.SBT: FeatureCategory.SPIKE_TRIGGERED_CURRENT,
    Feature.AR: FeatureCategory.REFRACTORY,
    Feature.RR: FeatureCategory.REFRACTORY,
}

#: Long names from Table II, used when rendering the feature table.
FEATURE_DESCRIPTIONS = {
    Feature.EXD: "Exponential membrane decay",
    Feature.LID: "Linear membrane decay",
    Feature.CUB: "Current-based input spike accumulation",
    Feature.COBE: "Conductance-based accumulation (exponential)",
    Feature.COBA: "Conductance-based accumulation (alpha function)",
    Feature.REV: "Reversal voltage",
    Feature.QDI: "Quadratic spike initiation",
    Feature.EXI: "Exponential spike initiation",
    Feature.ADT: "Adaptation (spike-triggered current)",
    Feature.SBT: "Subthreshold oscillation",
    Feature.AR: "Absolute refractory",
    Feature.RR: "Relative refractory",
}

#: Pairs of features that can never be enabled together. EXD/LID are the
#: two mutually exclusive membrane decays; CUB/COBE/COBA are the three
#: mutually exclusive accumulation kernels; QDI/EXI the two spike
#: initiations; REV "cannot be used w/ CUB" (Equation 4); and RR, whose
#: reversal-coupled ``w`` (Equation 8) replaces ADT's direct one, so RR
#: with ADT (and hence with SBT) has no single ``w`` update.
CONFLICTS = frozenset(
    {
        frozenset({Feature.EXD, Feature.LID}),
        frozenset({Feature.CUB, Feature.COBE}),
        frozenset({Feature.CUB, Feature.COBA}),
        frozenset({Feature.COBE, Feature.COBA}),
        frozenset({Feature.QDI, Feature.EXI}),
        frozenset({Feature.REV, Feature.CUB}),
        frozenset({Feature.RR, Feature.ADT}),
    }
)

#: Features that only make sense in the presence of another feature.
#: REV adjusts the contribution of a conductance, so it needs one; SBT's
#: update embeds the ADT decay (Equation 6), so SBT requires ADT.
REQUIRES = {
    Feature.REV: (Feature.COBE, Feature.COBA),
    Feature.SBT: (Feature.ADT,),
}
