"""Network-description schema and builders.

A specification is a plain dict (JSON-compatible)::

    {
      "name": "my-net",
      "dt": 1e-4,
      "seed": 0,                      # builds the network
      "stimulus_seed": 1,             # steps the stimuli (default: seed)
      "backend": "folded",            # any name in repro.assembly.BACKENDS
      "solver": "Euler",              # reference/solver/hybrid only
      "populations": [
        {"name": "exc", "n": 100, "model": "DLIF",
         "parameters": {"tau": 0.02}}   # optional: overrides DLIF's defaults
      ],
      "projections": [
        {"pre": "exc", "post": "exc", "probability": 0.1,
         "weight": 0.05, "syn_type": 0, "delay_steps": 1,
         "delay_jitter": 0,
         "plasticity": {"rule": "pair_stdp", "a_plus": 0.01}}  # optional
      ],
      "stimuli": [
        {"kind": "poisson", "target": "exc", "rate_hz": 400,
         "weight": 0.05, "n_sources": 10, "syn_type": 0},
        {"kind": "pattern", "target": "exc", "weight": 1.0,
         "events": {"0": [0, 1]}, "period": 100}
      ]
    }

Unknown keys are rejected (typos should fail loudly), and every error
names the offending entry. ``repro.workloads.spec_for`` writes each
Table I workload in this schema (``repro spec WORKLOAD`` prints one).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Tuple, Union

from repro.errors import ConfigurationError
from repro.models.registry import create_model
from repro.network.backends import RuntimeBackend
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PatternStimulus, PoissonStimulus
from repro.solvers import canonical_solver_name

_POPULATION_KEYS = {"name", "n", "model", "parameters"}
_PROJECTION_KEYS = {
    "pre", "post", "probability", "weight", "weight_std", "syn_type",
    "delay_steps", "delay_jitter", "allow_self", "plasticity",
}
_POISSON_KEYS = {"kind", "target", "rate_hz", "weight", "n_sources", "syn_type"}
_PATTERN_KEYS = {"kind", "target", "weight", "events", "period", "syn_type"}
_TOP_KEYS = {
    "name", "dt", "seed", "stimulus_seed", "backend", "solver",
    "populations", "projections", "stimuli",
}


def _check_keys(entry: Dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}"
        )


def _number(kind: type, noun: str, value, where: str):
    """``value`` as ``kind``, or a field-level :class:`ConfigurationError`."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{where} must be {noun}, got {value!r}")


def _as_int(value, where: str) -> int:
    return _number(int, "an integer", value, where)


def _as_float(value, where: str) -> float:
    return _number(float, "a number", value, where)


def _seed(spec: Dict, key: str) -> int:
    """A top-level seed; ``stimulus_seed`` defaults to ``seed``."""
    value = spec.get(key, spec.get("seed", 0))
    seed = _as_int(value, f"top-level {key!r}")
    if seed < 0:
        raise ConfigurationError(f"top-level {key!r} must be >= 0, got {seed}")
    return seed


def _require(entry: Dict, keys, where: str) -> None:
    for key in keys:
        if key not in entry:
            raise ConfigurationError(f"{where} missing required key {key!r}")


def _spec_list(spec: Dict, key: str) -> list:
    """A top-level section as a list of dict entries, validated."""
    value = spec.get(key)
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(
            f"top-level {key!r} must be a list of objects, "
            f"got {type(value).__name__}"
        )
    for index, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"{key}[{index}] must be an object, "
                f"got {type(entry).__name__}"
            )
    return list(value)


def load_spec(path: Union[str, pathlib.Path]) -> Dict:
    """Load a JSON specification from disk."""
    try:
        text = pathlib.Path(path).read_text()
    except OSError as error:
        raise ConfigurationError(
            f"cannot read spec {path}: {error}"
        ) from None
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid JSON in {path}: {error}") from None
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{path} must contain a JSON object")
    return spec


def build_network(spec: Dict) -> Network:
    """Materialise the network described by ``spec``."""
    import numpy as np

    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"a spec must be an object, got {type(spec).__name__}"
        )
    _check_keys(spec, _TOP_KEYS, "the top-level spec")
    populations = _spec_list(spec, "populations")
    if not populations:
        raise ConfigurationError("spec needs at least one population")
    network = Network(spec.get("name", "network"))
    rng = np.random.default_rng(_seed(spec, "seed"))
    dt = _as_float(spec.get("dt", 1e-4), "top-level 'dt'")
    if dt <= 0:
        raise ConfigurationError(f"top-level 'dt' must be positive, got {dt}")

    for entry in populations:
        where = f"population {entry.get('name')!r}"
        _check_keys(entry, _POPULATION_KEYS, where)
        _require(entry, ("name", "n", "model"), where)
        n = _as_int(entry["n"], f"{where}: 'n'")
        if n < 1:
            raise ConfigurationError(f"{where}: 'n' must be >= 1, got {n}")
        model = create_model(entry["model"])
        if entry.get("parameters"):
            if not isinstance(entry["parameters"], dict):
                raise ConfigurationError(
                    f"{where}: 'parameters' must be an object of "
                    f"model-parameter overrides"
                )
            overrides = dict(entry["parameters"])
            for tuple_key in ("tau_g", "v_g"):
                if tuple_key in overrides:
                    try:
                        overrides[tuple_key] = tuple(overrides[tuple_key])
                    except TypeError:
                        raise ConfigurationError(
                            f"{where}: {tuple_key!r} must be a list of "
                            f"numbers, got {overrides[tuple_key]!r}"
                        ) from None
            try:
                parameters = model.parameters.with_overrides(**overrides)
            except (TypeError, ConfigurationError) as error:
                raise ConfigurationError(
                    f"{where}: invalid model parameters: {error}"
                ) from None
            model = create_model(entry["model"], parameters=parameters)
        network.add_population(entry["name"], n, model)

    for entry in _spec_list(spec, "projections"):
        where = f"projection {entry.get('pre')}->{entry.get('post')}"
        _check_keys(entry, _PROJECTION_KEYS, where)
        _require(entry, ("pre", "post"), where)
        plasticity = entry.get("plasticity")
        kwargs = {}
        for key in ("probability", "weight", "weight_std"):
            if key in entry:
                kwargs[key] = _as_float(entry[key], f"{where}: {key!r}")
        for key in ("syn_type", "delay_steps", "delay_jitter"):
            if key in entry:
                kwargs[key] = _as_int(entry[key], f"{where}: {key!r}")
        if "allow_self" in entry:
            kwargs["allow_self"] = bool(entry["allow_self"])
        projection = network.connect(
            entry["pre"], entry["post"], rng=rng, **kwargs
        )
        if plasticity is not None:
            network.add_plasticity(
                projection, _build_plasticity(plasticity, where)
            )

    for entry in _spec_list(spec, "stimuli"):
        kind = entry.get("kind")
        target_name = entry.get("target")
        where = f"stimulus ({kind}) on {target_name!r}"
        _require(entry, ("kind", "target"), where)
        if target_name not in network.populations:
            raise ConfigurationError(f"{where}: unknown target population")
        target = network.populations[target_name]
        if kind == "poisson":
            _check_keys(entry, _POISSON_KEYS, where)
            _require(entry, ("rate_hz", "weight"), where)
            network.add_stimulus(
                PoissonStimulus(
                    target,
                    rate_hz=_as_float(entry["rate_hz"], f"{where}: 'rate_hz'"),
                    weight=_as_float(entry["weight"], f"{where}: 'weight'"),
                    dt=dt,
                    syn_type=_as_int(
                        entry.get("syn_type", 0), f"{where}: 'syn_type'"
                    ),
                    # As written: _as_int would truncate a 2.5.
                    n_sources=entry.get("n_sources", 1),
                )
            )
        elif kind == "pattern":
            _check_keys(entry, _PATTERN_KEYS, where)
            _require(entry, ("events", "weight"), where)
            if not isinstance(entry["events"], dict):
                raise ConfigurationError(
                    f"{where}: 'events' must map step -> neuron indices, "
                    f"got {type(entry['events']).__name__}"
                )
            events = {}
            for step, indices in entry["events"].items():
                step_index = _as_int(step, f"{where}: event step {step!r}")
                if isinstance(indices, (str, bytes)) or not isinstance(
                    indices, (list, tuple)
                ):
                    raise ConfigurationError(
                        f"{where}: event step {step}: neuron indices "
                        f"must be a list, got {indices!r}"
                    )
                events[step_index] = [
                    _as_int(index, f"{where}: event step {step} index")
                    for index in indices
                ]
            period = entry.get("period")
            if period is not None:
                period = _as_int(period, f"{where}: 'period'")
            network.add_stimulus(
                PatternStimulus(
                    target,
                    events,
                    weight=_as_float(entry["weight"], f"{where}: 'weight'"),
                    syn_type=_as_int(
                        entry.get("syn_type", 0), f"{where}: 'syn_type'"
                    ),
                    period=period,
                )
            )
        else:
            raise ConfigurationError(
                f"unknown stimulus kind {kind!r}; use 'poisson' or 'pattern'"
            )
    # Kept as its JSON round trip (numpy values as plain ones): the form
    # a checkpoint header holds, compared as is on restore.
    network.spec = json.loads(
        json.dumps(spec, default=lambda value: np.asarray(value).tolist())
    )
    return network


def _build_plasticity(entry: Dict, where: str):
    from repro.plasticity import PairSTDP

    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"{where}: 'plasticity' must be an object, "
            f"got {type(entry).__name__}"
        )
    entry = dict(entry)
    rule_name = entry.pop("rule", None)
    if rule_name != "pair_stdp":
        raise ConfigurationError(
            f"{where}: unknown plasticity rule {rule_name!r} "
            "(supported: 'pair_stdp')"
        )
    try:
        return PairSTDP(**entry)
    except (TypeError, ConfigurationError) as error:
        raise ConfigurationError(
            f"{where}: invalid plasticity parameters: {error}"
        ) from None


def build_backend(spec: Dict) -> RuntimeBackend:
    """Instantiate the backend named by ``spec``."""
    from repro.assembly import make_backend

    name = spec.get("backend", "reference")
    dt = _as_float(spec.get("dt", 1e-4), "top-level 'dt'")
    try:
        solver = canonical_solver_name(spec.get("solver", "Euler"))
    except ConfigurationError as error:
        raise ConfigurationError(f"top-level 'solver': {error}") from None
    return make_backend(name, dt, solver)


def build_simulation(spec: Dict) -> Tuple[Simulator, Network]:
    """Network + backend + simulator, ready to ``run(n_steps)``."""
    network = build_network(spec)
    backend = build_backend(spec)
    simulator = Simulator(
        network,
        backend,
        dt=_as_float(spec.get("dt", 1e-4), "top-level 'dt'"),
        seed=_seed(spec, "stimulus_seed"),
    )
    return simulator, network

