"""RunContext: one command invocation's plane, brought up and written out.

``repro run`` and ``repro sweep`` differ in *what steps* — one
``Simulator.run`` or a loop of them — and share everything around it,
in this order:

**Bring-up** (construction, :meth:`~RunContext.attach` per simulator,
:meth:`~RunContext.serve`): run id → metrics registry (only when a flag
will read it) → ``StatusBoard`` (``--serve``) → ``ServeHook`` on each
simulator → the HTTP plane.

**Write-out** (:meth:`~RunContext.write_out`): ``--stats-json`` →
``--trace`` → one ledger entry built from the command's config dict →
linger, then stop the plane.

**Interrupts** (``repro run``): :func:`graceful_signals` turns
SIGINT/SIGTERM into :meth:`InterruptHook.request`; the hook stops the
run at the next step boundary with a final checkpoint, and the partial
``--stats-json`` is the finished steps' statistics
(:meth:`InterruptHook.partial_stats`). The process exits with
:data:`EXIT_CODES`.

What the flags do not ask for stays unimported.
"""

from __future__ import annotations

import contextlib
import signal
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.hooks import PhaseHook
from repro.errors import RunInterrupted

__all__ = ["EXIT_CODES", "InterruptHook", "RunContext", "graceful_signals"]

#: Documented process exit codes for a gracefully interrupted run.
EXIT_CODES: Dict[str, int] = {"SIGINT": 130, "SIGTERM": 143}


class RunContext:
    """The observability plane and artifact writers of one invocation.

    ``args`` is the parsed command line; flags a command does not define
    read as unset.
    """

    def __init__(self, args, kind: str) -> None:
        from repro.provenance.ledger import new_run_id

        self.args = args
        self.kind = kind
        self.run_id = new_run_id()
        self.metrics = self.status = self.server = self._simulator = None
        serve = self._flag("serve")
        self._check_serve_flags()
        if serve or self._flag("stats_json"):
            from repro.telemetry import MetricsRegistry

            self.metrics = MetricsRegistry()
        if serve:
            from repro.observability.server import StatusBoard

            self.status = StatusBoard(state="starting")

    def _flag(self, name: str):
        return getattr(self.args, name, None)

    def _check_serve_flags(self) -> None:
        """Refuse serve flags the run would ignore, before the banner."""
        from repro.errors import ConfigurationError

        linger = self._flag("serve_linger") or 0.0
        if not linger >= 0:
            raise ConfigurationError(
                f"--serve-linger must be >= 0 seconds, got {linger:g}"
            )
        port_file = self._flag("serve_port_file")
        if not self._flag("serve") and (port_file or linger):
            flag = "--serve-port-file" if port_file else "--serve-linger"
            raise ConfigurationError(
                f"{flag} only applies with --serve (there is no plane "
                "to serve)"
            )

    @property
    def ledger_path(self) -> Optional[str]:
        """The ledger file this invocation records to (None = disabled)."""
        return None if self._flag("no_ledger") else self._flag("ledger")

    # -- bring-up ----------------------------------------------------------

    def attach(self, simulator) -> List:
        """The plane's hooks for a ``Simulator.run`` (may be empty)."""
        self._simulator = simulator
        if self.status is None:
            return []
        from repro.observability.hooks import ServeHook

        return [ServeHook(self.status, metrics=self.metrics)]

    def _runtime_health(self) -> Tuple[bool, str]:
        """``/healthz``: every runtime of the latest attached simulator
        finite (healthy before the first one is attached)."""
        backend = getattr(self._simulator, "backend", None)
        for name, runtime in getattr(backend, "runtimes", {}).items():
            bad = runtime.health()
            if bad is not None:
                variable, indices = bad
                return False, (
                    f"population {name!r}: {variable} non-finite or "
                    f"divergent in {len(indices)} neuron(s)"
                )
        return True, ""

    def serve(self, what) -> None:
        """Start the HTTP plane behind ``--serve`` (no-op without it).

        ``what`` names the work in the ``/readyz`` message; ``/healthz``
        probes the attached simulator's runtimes.
        """
        if self.status is None:
            return
        from repro.observability.plane import start_plane

        def ready_check() -> Tuple[bool, str]:
            state = self.status.snapshot().get("state")
            return (
                state in ("running", "finished"),
                f"{what} state is {state!r}",
            )

        self.server = start_plane(
            self.args.serve, self.args.serve_port_file, self.metrics,
            self.status, self._runtime_health, ready_check,
            ledger_path=self.ledger_path,
        )

    # -- write-out ---------------------------------------------------------

    def write_out(
        self,
        config: dict,
        *,
        outcome: str = "completed",
        duration: float = 0.0,
        partial: bool = False,
        stats: Optional[dict] = None,
        stats_label: str = "run statistics",
        trace: Optional[Tuple[dict, str]] = None,
        artifacts: Optional[dict] = None,
        **entry_fields,
    ) -> None:
        """Write the invocation's artifacts and its one ledger entry.

        ``stats`` is the ``--stats-json`` document (the run id is
        stamped in here), ``trace`` the ``--trace`` document
        plus the description printed after its path, ``artifacts`` files
        the command wrote itself; ``entry_fields`` reach ``make_entry``
        beside what ``config`` already says. ``partial`` marks a run cut
        short: only statistics and the ledger entry are written and the
        plane stops without lingering.
        """
        from repro.io import atomic_write_json

        args = self.args
        written = {}
        if self._flag("stats_json") and stats is not None:
            stats["run_id"] = self.run_id
            atomic_write_json(args.stats_json, stats)
            print(f"wrote {stats_label} {args.stats_json!r}")
            written["stats_json"] = args.stats_json
        if trace is not None:
            document, description = trace
            atomic_write_json(args.trace, document, indent=None)
            print(
                f"wrote {description} — load it in chrome://tracing or "
                f"https://ui.perfetto.dev"
            )
            written["trace"] = args.trace
        path = self.ledger_path
        if path:
            from repro.provenance.ledger import append_entry, make_entry

            entry = make_entry(
                self.kind, self.run_id, config, outcome=outcome,
                duration=duration,
                artifacts={**written, **(artifacts or {})}, **entry_fields,
            )
            try:
                append_entry(path, entry)
            except OSError as error:
                print(
                    f"warning: could not record run in ledger {path!r}: "
                    f"{error}",
                    file=sys.stderr,
                )
            else:
                print(f"recorded {self.run_id} in ledger {path!r}")
        if self.server is not None:
            from repro.observability.plane import linger_plane

            linger_plane(self.server, 0.0 if partial else args.serve_linger)


class InterruptHook(PhaseHook):
    """Stops a run cleanly once a signal handler calls :meth:`request`.

    It acts at the next ``on_step_start``, the one point where queues,
    runtimes and the stimulus plan are mutually consistent: it writes a
    final checkpoint carrying the live spike train to
    ``checkpoint_path`` (``None`` skips it), so a later
    ``--resume-from`` reports the full run, and raises
    :class:`~repro.errors.RunInterrupted`.
    """

    def __init__(self, simulator, checkpoint_path: Optional[str] = None) -> None:
        self.simulator = simulator
        self.checkpoint_path = checkpoint_path
        #: Signal name once an interrupt was requested (handler-set).
        self.requested: Optional[str] = None
        #: Where the final checkpoint was written (None = not written).
        self.checkpoint_written: Optional[str] = None

    def request(self, signal_name: str) -> None:
        """Ask the run to stop at the next step boundary (async-safe)."""
        self.requested = signal_name

    def on_step_start(self, step: int) -> None:
        if self.requested is None:
            return
        if self.checkpoint_path is not None:
            from repro.reliability.checkpoint import Checkpoint

            Checkpoint.capture(
                self.simulator, spikes=self.simulator.live_spikes
            ).save(self.checkpoint_path)
            self.checkpoint_written = self.checkpoint_path
        raise RunInterrupted(
            f"run interrupted by {self.requested} at step {step} "
            f"(checkpoint: {self.checkpoint_written or 'not written'})",
            signal_name=self.requested,
            step=step,
        )

    def partial_stats(self, stop: RunInterrupted) -> dict:
        """The ``--stats-json`` document of the run ``stop`` ended: the
        finished steps' statistics, marked partial."""
        return {
            **stop.result.to_stats_dict(),
            "partial": True,
            "interrupted": {
                "signal": stop.signal_name,
                "step": stop.step,
                "exit_code": EXIT_CODES.get(stop.signal_name, 130),
                "checkpoint": self.checkpoint_written,
            },
        }


@contextlib.contextmanager
def graceful_signals(hook: InterruptHook) -> Iterator[InterruptHook]:
    """Route SIGINT/SIGTERM into ``hook.request`` for the body's duration.

    The first signal requests a graceful stop; a second signal of
    either kind restores default behaviour and re-raises it, so an
    unresponsive run still dies. Previous handlers are restored on
    exit.
    """
    seen = {"count": 0}

    def handler(signum, frame):
        name = signal.Signals(signum).name
        seen["count"] += 1
        if seen["count"] > 1:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            raise KeyboardInterrupt(f"forced exit on repeated {name}")
        hook.request(name)

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, handler),
        signal.SIGTERM: signal.signal(signal.SIGTERM, handler),
    }
    try:
        yield hook
    finally:
        for signum, prior in previous.items():
            signal.signal(signum, prior)
