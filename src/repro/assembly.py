"""The backend table and the checks every run request passes.

A run is its front-end spec: ``repro run``, each job of ``repro
sweep``, the experiment helpers and ``repro simulate`` all build their
simulator with :func:`repro.frontend.build_simulation`, a registry
workload from ``{**spec_for(workload, scale, seed, dt), "backend": ...,
"solver": ...}`` (the spec also holds the seed contract: the network
builds with ``seed``, the stimulus plan with ``stimulus_seed``).

:data:`BACKENDS` is the one list of backend names: every CLI
``--backend`` takes it as its ``choices``, and :func:`make_backend`
(which the front-end's ``build_backend`` calls) maps a name to an
instance. :func:`check_run_request` refuses bad arguments before
anything is built.

Heavy imports (the hardware model, the simulator) stay inside the
functions: ``repro workloads`` imports this module without paying for
them.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "BACKENDS",
    "DT",
    "check_run_request",
    "make_backend",
]

#: Paper time step (the 0.1 ms every workload and CLI flag defaults to).
DT = 1e-4

#: Every backend name the repo knows. ``solver`` is the dict-state
#: reference path (``ReferenceBackend(use_engine=False)``), the oracle
#: the engine is pinned against.
BACKENDS = ("reference", "solver", "flexon", "folded", "hybrid")
#: The fixed-point backends: their datapaths have no software solver.
NO_SOLVER_BACKENDS = ("flexon", "folded")


def make_backend(name: str, dt: float = DT, solver: str = "Euler"):
    """A fresh, unprepared backend for one of :data:`BACKENDS`."""
    if name in ("reference", "solver"):
        from repro.network.backends import ReferenceBackend

        return ReferenceBackend(solver, use_engine=name == "reference")
    if name == "flexon":
        from repro.hardware.backend import FlexonBackend

        return FlexonBackend(dt)
    if name == "folded":
        from repro.hardware.backend import FoldedFlexonBackend

        return FoldedFlexonBackend(dt)
    if name == "hybrid":
        from repro.hardware.backend import HybridBackend

        return HybridBackend(dt, solver=solver)
    raise ConfigurationError(
        f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}"
    )


def check_run_request(
    steps: int,
    checkpoint_every: int = 0,
    trace_max_events: Optional[int] = None,
    seed: int = 0,
    min_steps: int = 0,
    dt: float = DT,
    backend: str = "reference",
    solver: Optional[str] = None,
) -> None:
    """Reject out-of-range run arguments before anything is built.

    ``min_steps=1`` is for callers that divide by the step count (the
    experiments' per-step rates) or have nothing to report without one.
    An explicit ``solver`` on a backend that has none is refused: the
    run would record a solver it never used.
    """
    if steps < min_steps:
        raise ConfigurationError(
            f"steps must be >= {min_steps}, got {steps}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if not 0 < dt < math.inf:  # NaN fails too
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if checkpoint_every < 0:
        raise ConfigurationError(
            f"checkpoint interval must be >= 0, got {checkpoint_every}"
        )
    if trace_max_events is not None and trace_max_events < 0:
        raise ConfigurationError(
            f"trace ring capacity must be >= 0, got {trace_max_events}"
        )
    if solver is not None and backend in NO_SOLVER_BACKENDS:
        raise ConfigurationError(
            f"--solver {solver} does not apply to backend {backend!r}: "
            "its fixed-point datapaths have no software solver"
        )
