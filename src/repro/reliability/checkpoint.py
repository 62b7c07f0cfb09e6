"""Checkpoint/resume: any simulation, killed, resumes bit-identically.

A :class:`Checkpoint` holds the step, the stimulus seed, every delay
ring, every runtime's and plasticity rule's ``snapshot`` and optionally
the spikes so far. Restoring checks a signature — network name,
backend, dt, sizes and, for a network built from a front-end spec, that
spec — and a :class:`~repro.errors.CheckpointError` names each
top-level key that differs. A file is data, never code: one ``.npz``
whose ``header`` member is UTF-8 JSON (version, signature, step, seed
and every non-array leaf) and whose other members are the payloads'
arrays, named by path (``runtimes/exc/state/v``, ``queues/exc/ring``,
``plasticity/0/x_val``, ``spikes/exc/0``); no object arrays.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine.hooks import PhaseHook
from repro.errors import CheckpointError
from repro.io import atomic_writer
from repro.network.recorder import SpikeRecorder
from repro.network.simulator import Simulator

#: Bumped whenever the on-disk layout changes (4: a JSON header plus
#: named arrays); ``restore`` refuses any other.
CHECKPOINT_VERSION = 4

#: The payload fields whose arrays are stored under their path.
_PAYLOADS = ("queues", "runtimes", "plasticity", "spikes")
_ZIP_MAGIC = b"PK\x03\x04"


def _signature_of(simulator: Simulator) -> Dict[str, object]:
    return {
        "network": simulator.network.name,
        "backend": simulator.backend.name,
        "dt": simulator.dt,
        "populations": {
            name: population.n
            for name, population in simulator.network.populations.items()
        },
        "spec": simulator.network.spec,
    }


def _mismatch(saved: Dict, current: Dict) -> str:
    """``key: a (checkpoint) vs b (this run)`` (``key differs`` for
    lists and objects) for each top-level key that differs; two specs
    are compared by their own top-level keys."""
    if all(isinstance(s.get("spec"), dict) for s in (saved, current)):
        saved = {**saved, "spec": None, **saved["spec"]}
        current = {**current, "spec": None, **current["spec"]}
    rows = []
    for key in {**saved, **current}:
        a, b = saved.get(key), current.get(key)
        if a != b:
            nested = isinstance(a, (dict, list)) or isinstance(b, (dict, list))
            rows.append(f"{key} differs" if nested else
                        f"{key}: {a!r} (checkpoint) vs {b!r} (this run)")
    return "; ".join(rows)


def _flatten(tree, at: str, arrays: Dict[str, np.ndarray]):
    """``tree``'s JSON skeleton; each array moves to ``arrays[at]``."""
    if isinstance(tree, np.ndarray):
        if tree.dtype.hasobject:
            raise CheckpointError(f"{at} is an object array")
        arrays[at] = tree
        return None
    if isinstance(tree, dict):
        return {k: _flatten(v, f"{at}/{k}", arrays) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_flatten(v, f"{at}/{i}", arrays) for i, v in enumerate(tree)]
    return tree


def _unflatten(tree, at: str, arrays: Dict[str, np.ndarray]):
    """The inverse of :func:`_flatten`."""
    if isinstance(tree, dict):
        return {k: _unflatten(v, f"{at}/{k}", arrays) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_unflatten(v, f"{at}/{i}", arrays) for i, v in enumerate(tree)]
    return arrays.get(at) if tree is None else tree


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

    @classmethod
    def capture(
        cls, simulator: Simulator, spikes: Optional[SpikeRecorder] = None
    ) -> "Checkpoint":
        """Snapshot a simulator between steps, with the spike train of
        ``spikes`` if given (``simulator.live_spikes`` mid-run)."""
        backend = simulator.backend
        if not backend.runtimes:
            raise CheckpointError("backend not prepared; nothing to capture")
        return cls(
            version=CHECKPOINT_VERSION,
            signature=_signature_of(simulator),
            step=simulator.current_step,
            stimulus_seed=simulator.stimulus_plan.seed,
            queues=simulator.router.snapshot(),
            runtimes={n: r.snapshot() for n, r in backend.runtimes.items()},
            plasticity=[
                rule.snapshot() for rule in simulator.network.plasticity_rules
            ],
            spikes=None if spikes is None else spikes.snapshot(),
        )

    def restore(self, simulator: Simulator) -> None:
        """Overwrite a freshly built simulator with this snapshot.

        The simulator must have been built from the same spec (or
        network shape), backend kind and dt the checkpoint came from.
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
                "checkpoint signature does not match this simulator: "
                + _mismatch(self.signature, expected)
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
        """The captured spikes, for a resumed ``run(spikes=...)``."""
        recorder = SpikeRecorder()
        if self.spikes is not None:
            recorder.load(self.spikes)
        return recorder

    def save(self, path: str) -> None:
        """Write atomically (via :func:`repro.io.atomic_writer`) so a
        crash mid-write never destroys the previous good checkpoint; an
        I/O failure raises :class:`CheckpointError` (``"io-error"``)."""
        arrays: Dict[str, np.ndarray] = {}
        header = {
            "version": self.version, "signature": self.signature,
            "step": self.step, "stimulus_seed": self.stimulus_seed,
            **{name: _flatten(getattr(self, name), name, arrays)
               for name in _PAYLOADS},
        }
        text = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        try:
            with atomic_writer(path, "wb") as handle:
                np.savez(handle, header=text, **arrays)
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint {path!r}: {error}",
                path=str(path), reason="io-error",
            ) from error

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a :meth:`save` file; nothing in it is ever executed.

        A failure is a :class:`CheckpointError` with ``path`` and
        ``reason``: ``"not-found"``, ``"io-error"``, ``"truncated"``
        (empty), ``"corrupt"`` (no readable archive) or ``"wrong-type"``
        (no version-4 checkpoint inside, e.g. an older version's file).
        """
        def refuse(reason: str, why: str) -> CheckpointError:
            return CheckpointError(
                f"checkpoint {path!r} {why}", path=str(path), reason=reason
            )

        arrays: Dict[str, np.ndarray] = {}
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(_ZIP_MAGIC))
                if magic == _ZIP_MAGIC:
                    handle.seek(0)
                    with np.load(handle) as archive:  # no object arrays
                        arrays = {key: archive[key] for key in archive.files}
        except FileNotFoundError as error:
            raise refuse("not-found", "does not exist") from error
        except OSError as error:
            raise refuse("io-error", f"cannot be read: {error}") from error
        except (zipfile.BadZipFile, EOFError) as error:
            raise refuse("corrupt", f"is corrupt: {error}") from error
        except ValueError:
            pass  # an object array: not a version-4 checkpoint
        if not magic:
            raise refuse("truncated", "is empty")
        # 0x80 opens the files versions before 4 wrote.
        if magic != _ZIP_MAGIC and magic[:1] != b"\x80":
            raise refuse("corrupt", "is not an .npz archive")
        try:
            header = json.loads(arrays.pop("header").tobytes())
            for name in _PAYLOADS:
                header[name] = _unflatten(header[name], name, arrays)
            return cls(**header)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise refuse(
                "wrong-type",
                f"does not contain a version-{CHECKPOINT_VERSION} "
                "checkpoint; re-capture from a fresh run",
            ) from error


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
