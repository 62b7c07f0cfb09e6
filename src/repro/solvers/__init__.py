"""ODE solvers used by the reference SNN simulator.

Table I workloads integrate their neuron dynamics with either the
forward Euler method (cheap; the method the hardware discretisation
mirrors) or the adaptive Runge-Kutta-Fehlberg 4(5) method (RKF45;
expensive, high accuracy). The choice matters for the Figure 3 latency
breakdown — RKF45 multiplies the neuron-computation cost by its stage
evaluations.

A solver is a name. The population runtimes that step under it
(:mod:`repro.engine.runtime`) keep its evaluation and advance counters:
Euler is the model's own discrete ``step``, one evaluation per advance;
RKF45 is the one integrator here, :class:`~repro.solvers.rkf45.RKF45Stepper`.
"""

from repro.errors import ConfigurationError

__all__ = ["SOLVER_NAMES", "canonical_solver_name"]

#: The Table I solver names, as spelled there.
SOLVER_NAMES = ("Euler", "RKF45")


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
