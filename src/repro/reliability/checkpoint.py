"""Checkpoint/resume: make any simulation killable and bit-identically
resumable.

A multi-hour paper-scale run must survive a crash. A
:class:`Checkpoint` captures *everything* a
:class:`~repro.network.simulator.Simulator` needs to continue exactly
where it stopped:

* the global step index,
* the stimulus seed (with the step, the streams' whole state),
* every population's :class:`~repro.routing.ring.DelayRing` (in-flight
  delayed spikes: the per-bucket accumulated weights, the ring head
  and the lifetime enqueue counter),
* every population runtime's state, via the runtime ``snapshot`` seam —
  SoA float blocks (compiled), dict state plus solver counters
  (solver), raw fixed-point words (hardware),
* every plasticity rule's lazy traces — per-neuron ``(value,
  last_update_step)`` pairs, the rule's step clock and counters — and
  the weights the rule mutates,
* optionally the spikes recorded so far, so a resumed run's recorder
  carries the full train.

Restoring verifies a structural signature (network name, backend name,
dt, population sizes) and raises
:class:`~repro.errors.CheckpointError` on any mismatch, so a
checkpoint can never be silently applied to the wrong simulation. The
resumed run is bit-identical to an uninterrupted one on every backend —
pinned by tests on the reference, engine, and hardware paths.

Files are written with :mod:`pickle` (trusted local artifacts, like
numpy's ``allow_pickle`` files): only load checkpoints you produced.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.hooks import PhaseHook
from repro.errors import CheckpointError
from repro.io import atomic_writer
from repro.network.recorder import SpikeRecorder
from repro.network.simulator import Simulator

#: Bumped whenever the on-disk payload layout changes (3: the stimulus
#: seed replaced the generator state); ``restore`` refuses any other.
CHECKPOINT_VERSION = 3


def _signature_of(simulator: Simulator) -> Dict[str, object]:
    return {
        "network": simulator.network.name,
        "backend": simulator.backend.name,
        "dt": simulator.dt,
        "populations": {
            name: population.n
            for name, population in simulator.network.populations.items()
        },
    }


@dataclass
class Checkpoint:
    """A complete, restorable snapshot of one simulator's state."""

    version: int
    signature: Dict[str, object]
    step: int
    stimulus_seed: int
    queues: Dict[str, dict]
    runtimes: Dict[str, dict]
    plasticity: List[dict]
    spikes: Optional[Dict[str, tuple]] = field(default=None)

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls,
        simulator: Simulator,
        spikes: Optional[SpikeRecorder] = None,
    ) -> "Checkpoint":
        """Snapshot a simulator between steps.

        ``spikes`` optionally includes a recorder's accumulated spike
        train so a resumed run can report the full history; pass
        ``simulator.live_spikes`` when capturing mid-run.
        """
        backend = simulator.backend
        if not backend.runtimes:
            raise CheckpointError("backend not prepared; nothing to capture")
        return cls(
            version=CHECKPOINT_VERSION,
            signature=_signature_of(simulator),
            step=simulator.current_step,
            stimulus_seed=simulator.stimulus_plan.seed,
            queues=simulator.router.snapshot(),
            runtimes={
                name: runtime.snapshot()
                for name, runtime in backend.runtimes.items()
            },
            plasticity=[
                rule.snapshot()
                for rule in simulator.network.plasticity_rules
            ],
            spikes=None if spikes is None else spikes.snapshot(),
        )

    # -- restore -----------------------------------------------------------

    def restore(self, simulator: Simulator) -> None:
        """Overwrite a freshly built simulator with this snapshot.

        The simulator must have been constructed over the same network
        shape, backend kind and dt the checkpoint was captured from.
        """
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} not supported "
                f"(expected {CHECKPOINT_VERSION}); re-capture from a "
                "fresh run"
            )
        expected = _signature_of(simulator)
        if self.signature != expected:
            raise CheckpointError(
                f"checkpoint signature {self.signature} does not match "
                f"this simulator {expected}"
            )
        backend = simulator.backend
        if set(self.runtimes) != set(backend.runtimes):
            raise CheckpointError(
                "checkpointed populations do not match the backend's"
            )
        rules = simulator.network.plasticity_rules
        if len(self.plasticity) != len(rules):
            raise CheckpointError(
                f"checkpoint has {len(self.plasticity)} plasticity rules, "
                f"the network has {len(rules)}"
            )
        simulator.stimulus_plan.restore(self.stimulus_seed)
        simulator.router.restore(self.queues)
        for name, payload in self.runtimes.items():
            backend.runtimes[name].restore(payload)
        for rule, payload in zip(rules, self.plasticity):
            rule.restore(payload)
        simulator._step = self.step

    def seed_recorder(self) -> SpikeRecorder:
        """A recorder pre-loaded with the captured spike history.

        Pass it to ``Simulator.run(..., spikes=...)`` so the resumed
        run appends to the history and reports the full train.
        """
        recorder = SpikeRecorder()
        if self.spikes is not None:
            recorder.load(self.spikes)
        return recorder

    # -- file round trip ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically (via :func:`repro.io.atomic_writer`) so a
        crash mid-write never destroys the previous good checkpoint; an
        I/O failure raises :class:`CheckpointError` (``"io-error"``)."""
        try:
            with atomic_writer(path, "wb") as handle:
                pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint {path!r}: {error}",
                path=str(path),
                reason="io-error",
            ) from error

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save` (trusted input).

        Every failure mode raises :class:`CheckpointError` carrying the
        ``path`` and a machine-readable ``reason`` — a truncated file
        (torn copy), a non-pickle file, a pickle of the wrong type, or
        a plain I/O error — never a bare ``EOFError`` or
        ``UnpicklingError`` from the pickle internals.
        """
        try:
            with open(path, "rb") as handle:
                checkpoint = pickle.load(handle)
        except FileNotFoundError as error:
            raise CheckpointError(
                f"checkpoint {path!r} does not exist",
                path=str(path),
                reason="not-found",
            ) from error
        except EOFError as error:
            raise CheckpointError(
                f"checkpoint {path!r} is truncated: {error}",
                path=str(path),
                reason="truncated",
            ) from error
        except pickle.UnpicklingError as error:
            raise CheckpointError(
                f"checkpoint {path!r} is not a valid pickle: {error}",
                path=str(path),
                reason="not-a-pickle",
            ) from error
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {path!r}: {error}",
                path=str(path),
                reason="io-error",
            ) from error
        except (
            # A corrupt or alien pickle stream can surface as almost
            # anything while object graphs rebuild: bad opcodes decode
            # to missing names, wrong argument counts, stray indices…
            AttributeError,
            ImportError,
            IndexError,
            KeyError,
            TypeError,
            ValueError,
        ) as error:
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt: "
                f"{type(error).__name__}: {error}",
                path=str(path),
                reason="corrupt",
            ) from error
        if not isinstance(checkpoint, cls):
            raise CheckpointError(
                f"{path!r} does not contain a checkpoint "
                f"(got {type(checkpoint).__name__})",
                path=str(path),
                reason="wrong-type",
            )
        return checkpoint


class CheckpointHook(PhaseHook):
    """Writes a checkpoint file every N steps during a run.

    Captures at step boundaries (``on_step_start``), where all state —
    queues, runtimes — is mutually consistent, with the spike train
    recorded so far. The file at ``path`` is atomically replaced each
    time, so it always holds the latest complete checkpoint.
    """

    def __init__(self, simulator: Simulator, every: int, path: str) -> None:
        if every < 1:
            raise CheckpointError(f"every must be >= 1, got {every}")
        self.simulator = simulator
        self.every = every
        self.path = path
        #: Checkpoints written so far.
        self.captures = 0

    def on_step_start(self, step: int) -> None:
        if step == 0 or step % self.every:
            return
        Checkpoint.capture(
            self.simulator, spikes=self.simulator.live_spikes
        ).save(self.path)
        self.captures += 1
