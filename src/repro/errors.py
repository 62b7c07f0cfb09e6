"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base type. Subclasses
separate configuration mistakes (bad feature combinations, bad
parameters) from runtime failures (simulation errors, numeric
overflow in strict mode).
"""

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration is invalid."""


class FeatureConflictError(ConfigurationError):
    """Raised when mutually exclusive biological features are combined.

    Examples: enabling both exponential (EXD) and linear (LID) membrane
    decay, both quadratic (QDI) and exponential (EXI) spike initiation,
    or reversal voltage (REV) together with current-based input (CUB).
    """


class UnknownModelError(ConfigurationError):
    """Raised when a neuron model or workload name is not registered."""


class FixedPointError(ReproError):
    """Base class for fixed-point arithmetic errors."""


class FixedPointFormatError(FixedPointError, ValueError):
    """Raised when a fixed-point format specification is invalid."""


class FixedPointOverflowError(FixedPointError, OverflowError):
    """Raised in strict mode when a value exceeds the representable range.

    The default hardware behaviour is saturation (as in the RTL); the
    strict mode exists so tests can assert that chosen formats never
    saturate on realistic workloads.
    """


class CompilationError(ReproError):
    """Raised when a neuron model cannot be compiled for Flexon."""


class MicrocodeError(ReproError):
    """Raised when a folded-Flexon microprogram is malformed."""


class SimulationError(ReproError):
    """Raised when a simulation cannot proceed (e.g. inconsistent sizes)."""


class ReliabilityError(ReproError):
    """Base class for reliability-layer failures (numerics, checkpoints).

    Separating these from :class:`SimulationError` lets degradation
    policies catch *detected faults* (and, say, fall back to the
    verbatim solver path) without accidentally swallowing genuine
    usage errors such as shape mismatches.
    """


class NumericsError(ReliabilityError):
    """Raised when simulation state stops being numerically trustworthy.

    Carries enough structure to act on: which population went bad, at
    which step, which state variable, and the indices of the offending
    neurons. The message stays human-readable so uncaught guard trips
    still explain themselves.
    """

    def __init__(
        self,
        message: str,
        population: str = "",
        step: int = -1,
        variable: str = "",
        indices=(),
    ):
        super().__init__(message)
        self.population = population
        self.step = step
        self.variable = variable
        self.indices = tuple(int(i) for i in indices)


class CheckpointError(ReliabilityError):
    """Raised when a checkpoint cannot be captured, read, or restored.

    Restoring verifies a signature (network name, population sizes,
    backend name, dt and the front-end spec the network was built
    from) so a checkpoint from one simulation cannot silently corrupt
    another. Load and save failures carry the offending ``path`` and a
    machine-readable ``reason`` (``"not-found"``, ``"io-error"``,
    ``"truncated"`` for an empty file, ``"corrupt"`` for one that is
    no readable ``.npz``, ``"wrong-type"`` for a readable file that
    holds no current-version checkpoint) so callers can distinguish a
    missing file from a torn or foreign one without parsing prose.
    """

    def __init__(self, message: str, path: str = "", reason: str = ""):
        super().__init__(message)
        self.path = path
        self.reason = reason


class RunInterrupted(ReproError):
    """Raised at a step boundary after SIGINT/SIGTERM requested a stop.

    ``CheckpointHook`` writes a final checkpoint *before* raising and
    names its file as ``checkpoint`` (None = not written);
    ``Simulator.run`` attaches the ``SimulationResult`` of the steps it
    finished as ``result``, and the CLI translates the exception into
    the documented exit code (130 for SIGINT, 143 for SIGTERM) instead
    of a raw traceback. ``step`` is the absolute step the run stopped
    at.
    """

    def __init__(
        self,
        message: str,
        signal_name: str = "",
        step: int = -1,
        checkpoint: Optional[str] = None,
    ):
        super().__init__(message)
        self.signal_name = signal_name
        self.step = step
        self.checkpoint = checkpoint
        self.result = None
