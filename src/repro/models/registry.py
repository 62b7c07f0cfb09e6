"""Name-based neuron-model factory: Table III as one defaults table.

A named feature model is its Table III feature combination
(:data:`~repro.features.MODEL_FEATURES`) plus literature parameter
defaults. :data:`MODEL_DEFAULTS` holds, per model, only the fields that
differ from ``ModelParameters()``; :func:`create_model` builds a
:class:`~repro.models.feature_model.FeatureModel` from the two. The
models outside the feature family (Hodgkin-Huxley and the native
Izhikevich formulation) keep their own classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import UnknownModelError
from repro.features import MODEL_FEATURES
from repro.models.base import ModelParameters, NeuronModel
from repro.models.feature_model import FeatureModel
from repro.models.hh import HodgkinHuxley
from repro.models.izhikevich import NativeIzhikevich

# AdEx (Brette & Gerstner): in our +w coupling convention the
# subthreshold constant a is negative (the stored hardware constant
# eps_m*a absorbs the sign), so w opposes deviations of v from v_w and
# damps subthreshold oscillation instead of feeding it.
_ADEX = {"tau_w": 144e-3, "a": -0.02, "v_w": 0.0, "b": 0.08}

#: Per-model parameter defaults, as changes to ``ModelParameters()``.
MODEL_DEFAULTS: Dict[str, Dict[str, object]] = {
    "LIF": {},
    # A leak that drains one threshold unit in ~50 ms.
    "LLIF": {"leak_rate": 20.0},
    "SLIF": {},
    "DSRM0": {},
    # Vogels-Abbott style refractory period.
    "DLIF": {"t_ref": 5e-3},
    "QIF": {},
    "EIF": {},
    "Izhikevich": {"b": 0.1, "t_ref": 1e-3},
    "AdEx": _ADEX,
    "AdEx_COBA": _ADEX,
    # PyNN IF_psc_alpha: fast alpha-shaped currents.
    "IF_psc_alpha": {"tau_g": (2e-3, 2e-3)},
    # PyNN IF_cond_exp_gsfa_grr: sfa (our w) and rr (our r) decays.
    "IF_cond_exp_gsfa_grr": {"tau_w": 110e-3, "tau_r": 1.97e-3},
}

_OTHER_MODELS = {"HH": HodgkinHuxley, "NativeIzhikevich": NativeIzhikevich}

_ALIASES: Dict[str, str] = {
    "adexcoba": "AdEx_COBA",
    "hodgkinhuxley": "HH",
    "hodgkin-huxley": "HH",
}


def canonical_name(name: str) -> str:
    """Resolve a case-folded name or an alias to its canonical key."""
    known = available_models()
    if name in known:
        return name
    folded = {model.lower(): model for model in known}
    folded.update(_ALIASES)
    try:
        return folded[name.lower()]
    except KeyError:
        raise UnknownModelError(
            f"unknown neuron model {name!r}; known: {', '.join(known)}"
        ) from None


def create_model(
    name: str, parameters: Optional[ModelParameters] = None, **kwargs
) -> NeuronModel:
    """Instantiate a neuron model by (possibly aliased) name.

    ``parameters``, when given, replaces the model's defaults whole.
    """
    name = canonical_name(name)
    if name in _OTHER_MODELS:
        return _OTHER_MODELS[name](parameters=parameters, **kwargs)
    if parameters is None:
        parameters = ModelParameters(**MODEL_DEFAULTS[name])
    return FeatureModel(MODEL_FEATURES[name], parameters, name=name, **kwargs)


def available_models() -> List[str]:
    """Sorted canonical names of all registered models."""
    return sorted([*MODEL_DEFAULTS, *_OTHER_MODELS])
