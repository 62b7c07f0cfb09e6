"""Run provenance: distributed tracing + the durable run ledger.

Two coupled pieces turn the repo's multi-process runs into auditable
history:

* **Distributed tracing** — a :class:`TraceContext` rides the
  supervision pipe protocol into every worker; each worker records a
  bounded :class:`SpanRecorder` ring of wall-clock spans and ships it
  back over the same dual exit paths as the flight recorder (pipe
  message on ``done``/``failed``, atomic sidecar on SIGKILL). The
  supervisor's sweep trace gives every worker incarnation's
  :class:`ProcessRing` its own track, with a per-process clock-offset
  correction estimated from the started/heartbeat handshakes.
* **Run ledger** — ``ledger.jsonl`` (schema ``repro-ledger/1``), an
  append-only, torn-line-tolerant record of every ``repro run`` /
  ``sweep`` / ``profile``: config digest, seed, backend, spike
  digest, outcome, duration, metrics snapshot and artifact paths.
  Queried by ``repro runs list|show|diff`` and served as ``GET /runs``
  on the observability plane.
"""

from repro.provenance.context import TraceContext
from repro.provenance.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    append_entry,
    config_digest,
    diff_entries,
    find_entry,
    load_ledger,
    make_entry,
    runs_document,
    summarize_entry,
)
from repro.provenance.merge import ProcessRing, estimate_offset
from repro.provenance.spans import (
    SPANS_SCHEMA,
    PhaseSpanHook,
    SpanRecorder,
)

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "SPANS_SCHEMA",
    "PhaseSpanHook",
    "ProcessRing",
    "SpanRecorder",
    "TraceContext",
    "append_entry",
    "config_digest",
    "diff_entries",
    "estimate_offset",
    "find_entry",
    "load_ledger",
    "make_entry",
    "runs_document",
    "summarize_entry",
]
