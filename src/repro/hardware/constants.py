"""Shift & scale constant preparation (Section IV-B1).

Flexon stores no resting or threshold voltage: the back-end normalises
every model so that ``v0 = 0`` and ``theta = 1.0`` and pre-computes the
per-step constants the data paths consume (``eps_m' = 1 - dt/tau``,
``e * eps_g``, ``eps_m * a * v_w``, ...). This module performs that
host-side preparation: it maps a reference
:class:`~repro.models.base.ModelParameters` and a time step onto the
quantised constant set of one Flexon neuron.

Two conventions bridge the reference equations and the hardware
microcode (Table V):

* **Weight pre-scaling** — the hardware adds synaptic input *unscaled*
  (``v' += eps_m' * v + I``), so for exponential-decay models the
  back-end pre-scales synaptic weights by ``eps_m = dt / tau``; LID
  models add inputs at full scale (Equation 3 does not scale ``I``).
* **Sign absorption** — constants that the microcode adds are stored
  with their sign absorbed (e.g. ``-V_leak``, ``-eps_m * v_c``,
  ``-theta / delta_T``), exactly as Table V's operand columns imply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.features import Feature, FeatureSet
from repro.fixedpoint import FLEXON_FORMAT, FixedFormat, fx_from_float
from repro.models.base import ModelParameters


@dataclass(frozen=True)
class NeuronConstants:
    """Quantised per-model constants, as raw fixed-point integers.

    Every field is a raw integer (or tuple of raw integers, one per
    synapse type) in ``fmt``; ``cnt_max`` is a plain integer count.
    """

    fmt: FixedFormat
    dt: float
    n_synapse_types: int
    #: 1 - eps_m (EXD decay multiplier)
    eps_m_c: int
    #: eps_m itself (QDI uses it as a multiplier)
    eps_m: int
    #: linear decay step V_leak = leak_rate * dt (LID)
    v_leak: int
    #: 1 - eps_g,i per synapse type (COBE/COBA decay)
    eps_g_c: Tuple[int, ...]
    #: e * eps_g,i per synapse type (COBA ramp)
    e_eps_g: Tuple[int, ...]
    #: reversal voltages v_g,i per synapse type (REV)
    v_g: Tuple[int, ...]
    #: -eps_m * v_c (QDI additive constant, sign absorbed)
    neg_eps_m_v_c: int
    #: 1 / delta_T (EXI exponent multiplier)
    inv_delta_t: int
    #: -theta / delta_T (EXI exponent additive constant, sign absorbed)
    neg_theta_inv_delta_t: int
    #: delta_T * eps_m (EXI output multiplier)
    delta_t_eps_m: int
    #: 1 - eps_w (ADT/SBT/RR adaptation decay)
    eps_w_c: int
    #: eps_m * a (SBT drive multiplier)
    eps_m_a: int
    #: -eps_m * a * v_w (SBT additive constant, sign absorbed)
    neg_eps_m_a_v_w: int
    #: 1 - eps_r (RR decay)
    eps_r_c: int
    #: v_ar, v_rr (RR reversal voltages)
    v_ar: int
    v_rr: int
    #: post-spike jumps b and q_r
    b: int
    q_r: int
    #: firing threshold (theta, or v_theta when QDI/EXI is enabled)
    threshold: int
    #: reset voltage (v0 after shift & scale: zero unless overridden)
    v_reset: int
    #: absolute-refractory reload value, in time steps
    cnt_max: int
    #: weight pre-scale applied by the back-end (float; host side)
    weight_scale: float
    #: constant 1.0 and -1.0 in fmt (operand constants for the ALU)
    one: int
    neg_one: int


def prepare_constants(
    parameters: ModelParameters,
    features: FeatureSet,
    dt: float,
    fmt: FixedFormat = FLEXON_FORMAT,
) -> NeuronConstants:
    """Quantise one model's constants for the given time step.

    The reference parameters are assumed to already be in shifted &
    scaled units (``v_rest = 0``, ``theta = 1.0``); a non-trivial shift
    is rejected rather than silently mis-simulated, because the data
    paths hard-wire the zero resting voltage.
    """
    if not 0 < dt < math.inf:  # NaN fails too
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if parameters.n_synapse_types > 4:
        raise ConfigurationError(
            "Flexon supports at most 4 synapse types (the Table IV "
            f"type field is 2 bits); got {parameters.n_synapse_types}"
        )
    if abs(parameters.v_rest) > 1e-12:
        raise ConfigurationError(
            "Flexon hard-wires v0 = 0; shift the model parameters first "
            f"(got v_rest = {parameters.v_rest})"
        )
    p = parameters
    d = p.derived(dt)
    eps_m = d.eps_m
    # LID adds inputs at full scale (Equation 3); EXD-family models
    # absorb the eps_m factor into the weights (Table V convention).
    weight_scale = 1.0 if Feature.LID in features else eps_m

    def q(value: float) -> int:
        return fx_from_float(value, fmt)

    return NeuronConstants(
        fmt=fmt,
        dt=dt,
        n_synapse_types=p.n_synapse_types,
        eps_m_c=q(1.0 - eps_m),
        eps_m=q(eps_m),
        v_leak=q(d.leak_max),
        eps_g_c=tuple(q(x) for x in d.one_minus_eps_g),
        e_eps_g=tuple(q(x) for x in d.e_eps_g),
        v_g=tuple(q(v) for v in p.v_g[: p.n_synapse_types]),
        neg_eps_m_v_c=q(-eps_m * p.v_c),
        inv_delta_t=q(1.0 / p.delta_t),
        neg_theta_inv_delta_t=q(-p.theta / p.delta_t),
        delta_t_eps_m=q(p.delta_t * eps_m),
        eps_w_c=q(d.one_minus_eps_w),
        eps_m_a=q(d.sbt_gain),
        neg_eps_m_a_v_w=q(-d.sbt_gain * p.v_w),
        eps_r_c=q(d.one_minus_eps_r),
        v_ar=q(p.v_ar),
        v_rr=q(p.v_rr),
        b=q(p.b),
        q_r=q(p.q_r),
        threshold=q(features.threshold(p)),
        v_reset=q(p.reset_voltage),
        cnt_max=d.cnt_reload,
        weight_scale=weight_scale,
        one=q(1.0),
        neg_one=q(-1.0),
    )
