"""Reference neuron models (float ground truth).

The paper verifies its RTL "by comparing the output spikes with those of
Brian, a CPU-based SNN simulator" (Section VI-A). This package is our
Brian substitute: software reference implementations of every neuron
model in Tables I and III, in double-precision floating point.

The workhorse is :class:`~repro.models.feature_model.FeatureModel`,
which implements the paper's extended-LIF semantics (Equations 2-8)
generically from a :class:`~repro.features.FeatureSet`. A named model
(LIF, LLIF, ..., AdEx) is not a class: :func:`create_model` pairs its
Table III feature combination with its row of
:data:`~repro.models.registry.MODEL_DEFAULTS` (the parameter fields
that differ from ``ModelParameters()``). :mod:`repro.models.hh` adds
the Hodgkin-Huxley model, which Flexon does *not* support — it exists
to exercise the Section VII-A offloading path. :mod:`repro.models.
izhikevich` ships the native (v, u) Izhikevich formulation as an
independent cross-check of the feature-based mapping.
"""

from repro.models.base import ModelParameters, NeuronModel
from repro.models.feature_model import FeatureModel
from repro.models.hh import HodgkinHuxley
from repro.models.izhikevich import NativeIzhikevich
from repro.models.registry import available_models, create_model

__all__ = [
    "FeatureModel",
    "HodgkinHuxley",
    "ModelParameters",
    "NativeIzhikevich",
    "NeuronModel",
    "available_models",
    "create_model",
]
