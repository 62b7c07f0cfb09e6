"""RunContext: one command invocation's artifacts, checked and written.

``repro run`` and ``repro sweep`` differ in *what steps* — one
``Simulator.run`` or a loop of them — and share everything around it,
in this order:

**Bring-up** (construction): a run id, and every output path's
directory checked before the banner.

**Write-out** (:meth:`~RunContext.write_out`): ``--stats-json`` →
``--trace`` → one ledger entry built from the command's config dict.

**Interrupts** (``repro run``): :func:`graceful_signals` turns
SIGINT/SIGTERM into ``CheckpointHook.request``; the hook stops the run
at the next step boundary with a final checkpoint, and
:meth:`~RunContext.write_out` writes the finished steps' statistics as
the partial ``--stats-json``. The process exits with
:data:`EXIT_CODES`.

What the flags do not ask for stays unimported.
"""

from __future__ import annotations

import contextlib
import signal
import sys
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import RunInterrupted

__all__ = ["EXIT_CODES", "RunContext", "graceful_signals"]

#: Documented process exit codes for a gracefully interrupted run.
EXIT_CODES: Dict[str, int] = {"SIGINT": 130, "SIGTERM": 143}


class RunContext:
    """The artifact writers of one invocation.

    ``args`` is the parsed command line; flags a command does not define
    read as unset.
    """

    def __init__(self, args, kind: str) -> None:
        from repro.provenance.ledger import new_run_id

        self.args = args
        self.kind = kind
        self.run_id = new_run_id()
        self._check_output_dirs()

    def _flag(self, name: str):
        return getattr(self.args, name, None)

    def _check_output_dirs(self) -> None:
        """Refuse an output path whose directory is missing, before the
        banner: the file would fail to write after the whole run."""
        import os

        from repro.errors import ConfigurationError

        for flag in ("stats_json", "trace", "checkpoint_path"):
            path = self._flag(flag)
            directory = os.path.dirname(os.path.abspath(path or ""))
            if path and not os.path.isdir(directory):
                raise ConfigurationError(
                    f"--{flag.replace('_', '-')} {path!r}: directory "
                    f"{directory!r} does not exist"
                )

    @property
    def ledger_path(self) -> Optional[str]:
        """The ledger file this invocation records to (None = disabled)."""
        return None if self._flag("no_ledger") else self._flag("ledger")

    # -- write-out ---------------------------------------------------------

    def write_out(
        self,
        config: dict,
        *,
        outcome: str = "completed",
        duration: float = 0.0,
        interrupted: Optional[RunInterrupted] = None,
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
        beside what ``config`` already says. ``interrupted`` is the
        exception that cut a run short: the statistics are then its
        finished steps', marked partial.
        """
        from repro.io import atomic_write_json

        args = self.args
        written = {}
        if interrupted is not None:
            stats = {
                **interrupted.result.to_stats_dict(),
                "partial": True,
                "interrupted": {
                    "signal": interrupted.signal_name,
                    "step": interrupted.step,
                    "exit_code": EXIT_CODES.get(interrupted.signal_name, 130),
                    "checkpoint": interrupted.checkpoint,
                },
            }
            stats_label = "partial run statistics"
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


@contextlib.contextmanager
def graceful_signals(hook) -> Iterator:
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
