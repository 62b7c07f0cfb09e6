"""Crash-safe file output shared by every layer that writes artifacts.

A killed process must never leave a truncated checkpoint, stats dump,
or benchmark export behind — a half-written JSON file is worse than no
file, because downstream tooling trusts whatever parses. Every writer
in the repo therefore goes through the same discipline:

1. write the complete payload to a temporary file *in the destination
   directory* (same filesystem, so the rename below is atomic),
2. flush and ``fsync`` so the bytes are durably on disk,
3. ``os.replace`` the temporary file over the destination.

A crash — including SIGKILL — at any point leaves either the previous
good file or no file, never a partial one. The helpers here are the
single implementation (extracted from the checkpoint writer, which
pioneered the pattern in this repo):

* :func:`atomic_writer` — context manager yielding a file handle;
* :func:`atomic_write_bytes` / :func:`atomic_write_text` — one-shot
  payload writers;
* :func:`atomic_write_json` — the JSON artifact writer used by
  ``repro run --stats-json`` / ``--trace`` and ``repro sweep
  --stats-json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Iterator, List, Optional, Union

try:  # POSIX only; JSONL appends degrade to unlocked on other platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "atomic_writer",
    "load_jsonl",
]

PathLike = Union[str, "os.PathLike[str]"]


@contextlib.contextmanager
def atomic_writer(path: PathLike, mode: str = "wb") -> Iterator:
    """Open a temp file that atomically replaces ``path`` on success.

    The handle is flushed, fsynced and renamed over ``path`` only when
    the ``with`` body completes; any exception (or a process kill)
    leaves the previous file contents untouched. ``mode`` must be a
    write mode (``"wb"`` or ``"w"``); text mode writes UTF-8.
    """
    if "w" not in mode:
        raise ValueError(f"atomic_writer needs a write mode, got {mode!r}")
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix="." + os.path.basename(path) + "-", suffix=".tmp",
        dir=directory,
    )
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_writer(path, "wb") as handle:
        handle.write(data)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    with atomic_writer(path, "w") as handle:
        handle.write(text)


def atomic_write_json(
    path: PathLike,
    payload,
    indent: int = 2,
    sort_keys: bool = False,
) -> None:
    """Atomically write ``payload`` as JSON (trailing newline included)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)


def append_jsonl(path: PathLike, record: dict) -> None:
    """Append one JSON record as a whole line, safe under concurrency.

    Append-only histories (``ledger.jsonl``) have a different failure model than one-shot artifacts: several
    processes may append at once, and none of them may clobber the
    others' lines. A read-modify-rename cycle loses lines under that
    race, so appends go through ``O_APPEND`` plus an exclusive
    ``flock`` (where available) and a single ``write`` + ``fsync``.
    A crash mid-write can leave at most one torn *final* line, which
    :func:`load_jsonl` tolerates by skipping unparsable lines.
    """
    line = json.dumps(record) + "\n"
    fd = os.open(
        os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        if fcntl is not None:
            with contextlib.suppress(OSError):
                fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, line.encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)


def load_jsonl(path: PathLike, schema: Optional[str] = None) -> List[dict]:
    """Load a JSONL history, skipping torn or foreign lines.

    A record survives only if the line parses as a JSON object and,
    when ``schema`` is given, carries that ``"schema"`` value — so a
    truncated final line (crash mid-append) or a record written by a
    different tool version degrades to a shorter history, never an
    exception. A missing file is an empty history.
    """
    records: List[dict] = []
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                if schema is not None and record.get("schema") != schema:
                    continue
                records.append(record)
    except FileNotFoundError:
        return []
    return records
