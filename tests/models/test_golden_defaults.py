"""Every registered model's defaults, pinned to literal values.

One row per :func:`available_models` name: the model's name, its
feature combination (``None`` outside the feature family), the
parameter fields that differ from ``ModelParameters()``, its state
variables and its per-update operation counts.
"""

import dataclasses

import pytest

from repro.models import ModelParameters, available_models, create_model

BASE_PARAMETERS = {
    "tau": 0.02, "v_rest": 0.0, "theta": 1.0, "v_reset": None,
    "leak_rate": 10.0, "n_synapse_types": 2, "tau_g": (0.005, 0.01),
    "v_g": (4.33, -1.0), "v_theta": 2.0, "delta_t": 0.133, "v_c": 0.5,
    "tau_w": 0.1, "a": 0.02, "v_w": 0.2, "b": 0.05, "t_ref": 0.002,
    "tau_r": 0.002, "q_r": 0.3, "v_rr": -1.0, "v_ar": -0.5,
}

_ADEX = {"tau_w": 0.144, "a": -0.02, "v_w": 0.0, "b": 0.08}

GOLDEN = [
    ("AdEx", "EXD+COBE+REV+EXI+ADT+SBT+AR", _ADEX,
     ("v", "g0", "g1", "w", "cnt"),
     {"mul": 10, "add": 14, "exp": 1, "cmp": 2}),
    ("AdEx_COBA", "EXD+COBA+REV+EXI+ADT+SBT+AR", _ADEX,
     ("v", "g0", "g1", "y0", "y1", "w", "cnt"),
     {"mul": 14, "add": 16, "exp": 1, "cmp": 2}),
    ("DLIF", "EXD+COBE+REV+AR", {"t_ref": 0.005},
     ("v", "g0", "g1", "cnt"),
     {"mul": 5, "add": 9, "exp": 0, "cmp": 2}),
    ("DSRM0", "EXD+COBE+AR", {},
     ("v", "g0", "g1", "cnt"),
     {"mul": 3, "add": 7, "exp": 0, "cmp": 2}),
    ("EIF", "EXD+COBE+REV+EXI+AR", {},
     ("v", "g0", "g1", "cnt"),
     {"mul": 7, "add": 11, "exp": 1, "cmp": 2}),
    ("HH", None, {},
     ("v", "m", "h", "n", "above"),
     {"mul": 24, "add": 22, "exp": 6, "cmp": 1}),
    ("IF_cond_exp_gsfa_grr", "EXD+COBE+REV+AR+RR",
     {"tau_w": 0.11, "tau_r": 0.00197},
     ("v", "g0", "g1", "w", "r", "cnt"),
     {"mul": 9, "add": 14, "exp": 0, "cmp": 2}),
    ("IF_psc_alpha", "EXD+COBA+AR", {"tau_g": (0.002, 0.002)},
     ("v", "g0", "g1", "y0", "y1", "cnt"),
     {"mul": 7, "add": 9, "exp": 0, "cmp": 2}),
    ("Izhikevich", "EXD+COBE+REV+QDI+ADT+AR", {"b": 0.1, "t_ref": 0.001},
     ("v", "g0", "g1", "w", "cnt"),
     {"mul": 8, "add": 12, "exp": 0, "cmp": 2}),
    ("LIF", "EXD+CUB", {},
     ("v",),
     {"mul": 1, "add": 4, "exp": 0, "cmp": 1}),
    ("LLIF", "LID+CUB+AR", {"leak_rate": 20.0},
     ("v", "cnt"),
     {"mul": 0, "add": 5, "exp": 0, "cmp": 3}),
    ("NativeIzhikevich", None, {},
     ("v", "u"),
     {"mul": 5, "add": 6, "exp": 0, "cmp": 1}),
    ("QIF", "EXD+COBE+REV+QDI+AR", {},
     ("v", "g0", "g1", "cnt"),
     {"mul": 7, "add": 11, "exp": 0, "cmp": 2}),
    ("SLIF", "EXD+CUB+AR", {},
     ("v", "cnt"),
     {"mul": 1, "add": 5, "exp": 0, "cmp": 2}),
]


def test_golden_rows_cover_every_model():
    assert [row[0] for row in GOLDEN] == available_models()


def test_base_parameters_pinned():
    assert dataclasses.asdict(ModelParameters()) == BASE_PARAMETERS


@pytest.mark.parametrize("row", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_model_defaults_pinned(row):
    name, features, changed, variables, ops = row
    model = create_model(name)
    feature_set = getattr(model, "features", None)
    assert model.name == name
    assert features == (
        None if feature_set is None
        else "+".join(f.value for f in feature_set)
    )
    assert dataclasses.asdict(model.parameters) == {
        **BASE_PARAMETERS, **changed
    }
    assert model.state_variable_names() == variables
    assert model.ops_per_update() == ops
