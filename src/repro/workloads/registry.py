"""Registry of the ten Table I workloads, each a front-end spec."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.assembly import DT
from repro.errors import UnknownModelError
from repro.network.network import Network
from repro.workloads import brette, brunel, destexhe, izhikevich_net
from repro.workloads import muller, nowotny, potjans, vogels
from repro.workloads.spec import WorkloadSpec, validate_scale

#: scale -> the network sections of a front-end spec.
Describe = Callable[[float], Dict]

#: name -> (spec, description), in Table I order.
WORKLOADS: Dict[str, Tuple[WorkloadSpec, Describe]] = {
    "Brette et al.": (brette.SPEC, brette.describe),
    "Brunel": (brunel.SPEC, brunel.describe),
    "Destexhe-LTS": (destexhe.LTS_SPEC, destexhe.describe_lts),
    "Destexhe-UpDown": (destexhe.UPDOWN_SPEC, destexhe.describe_updown),
    "Izhikevich": (izhikevich_net.SPEC, izhikevich_net.describe),
    "Muller et al.": (muller.SPEC, muller.describe),
    "Nowotny et al.": (nowotny.SPEC, nowotny.describe),
    "Potjans-Diesmann": (potjans.SPEC, potjans.describe),
    "Vogels et al.": (vogels.VOGELS_SPEC, vogels.describe_vogels),
    "Vogels-Abbott": (
        vogels.VOGELS_ABBOTT_SPEC, vogels.describe_vogels_abbott,
    ),
}


def workload_names() -> List[str]:
    """Workload names in Table I order."""
    return list(WORKLOADS)


def _entry(name: str) -> Tuple[WorkloadSpec, Describe]:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise UnknownModelError(
            f"unknown workload {name!r}; known: {known}"
        ) from None


def get_spec(name: str) -> WorkloadSpec:
    """The Table I spec for a workload name."""
    return _entry(name)[0]


def spec_for(
    name: str, scale: float = 1.0, seed: int = 0, dt: float = DT
) -> Dict:
    """One Table I workload as a front-end spec (no ``backend`` key).

    The spec holds the seed contract of a registry run: the network
    builds with ``seed``, the stimulus plan with ``seed + 1``. So ``repro
    run``, a resumed run, a sweep job and ``repro simulate`` of ``repro
    spec``'s output give bit-identical spikes for the same ``(workload,
    backend, scale, seed, dt, steps)``.
    """
    workload, describe = _entry(name)
    return {
        "name": name,
        "dt": dt,
        "seed": seed,
        "stimulus_seed": seed + 1,
        "solver": workload.solver,
        **describe(validate_scale(scale)),
    }


def build_workload(name: str, scale: float = 1.0, seed: int = 0) -> Network:
    """Build one Table I workload at the given scale."""
    # Imported here: `repro workloads` lists the table without loading
    # the front-end.
    from repro.frontend import build_network

    return build_network(spec_for(name, scale, seed))
