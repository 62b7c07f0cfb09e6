"""Run provenance: the durable run ledger.

``ledger.jsonl`` (schema ``repro-ledger/1``) is an append-only,
torn-line-tolerant record of every ``repro run`` / ``sweep`` (and of
the retired ``profile``): run id, config digest, seed, backend, spike digest,
outcome, duration, metrics snapshot and artifact paths. Queried by
``repro runs list|show|diff``.
"""

from repro.provenance.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    append_entry,
    config_digest,
    diff_entries,
    find_entry,
    load_ledger,
    make_entry,
    new_run_id,
    newest_first,
    runs_document,
    summarize_entry,
)

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "append_entry",
    "config_digest",
    "diff_entries",
    "find_entry",
    "load_ledger",
    "make_entry",
    "new_run_id",
    "newest_first",
    "runs_document",
    "summarize_entry",
]
