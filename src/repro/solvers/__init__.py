"""ODE solvers used by the reference SNN simulator.

Table I workloads integrate their neuron dynamics with either the
forward Euler method (cheap; the method the hardware discretisation
mirrors) or the adaptive Runge-Kutta-Fehlberg 4(5) method (RKF45;
expensive, high accuracy). The choice matters for the Figure 3 latency
breakdown — RKF45 multiplies the neuron-computation cost by its stage
evaluations — so both are implemented here.
"""

from repro.errors import ConfigurationError
from repro.solvers.base import Solver
from repro.solvers.euler import EulerSolver
from repro.solvers.rkf45 import RKF45Solver, rkf45_integrate

__all__ = [
    "SOLVER_NAMES",
    "EulerSolver",
    "RKF45Solver",
    "Solver",
    "canonical_solver_name",
    "create_solver",
    "rkf45_integrate",
]

#: The Table I solver names, as spelled there.
SOLVER_NAMES = (EulerSolver.name, RKF45Solver.name)


def canonical_solver_name(solver: str) -> str:
    """``solver`` in its Table I spelling, or a configuration error
    listing the choices — for callers that take the name from a user
    (backends, the JSON front end), so a typo fails where it is given
    rather than inside ``prepare``."""
    for name in SOLVER_NAMES:
        if isinstance(solver, str) and solver.lower() == name.lower():
            return name
    raise ConfigurationError(
        f"unknown solver {solver!r} (choose from {', '.join(SOLVER_NAMES)})"
    )


def create_solver(name: str) -> Solver:
    """Instantiate a solver by its Table I name ('Euler' or 'RKF45')."""
    lowered = name.lower()
    if lowered == "euler":
        return EulerSolver()
    if lowered == "rkf45":
        return RKF45Solver()
    raise ValueError(f"unknown solver {name!r}; use 'Euler' or 'RKF45'")
