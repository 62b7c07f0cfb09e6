"""Graceful SIGINT/SIGTERM for foreground ``repro run``.

:mod:`repro.supervision.interrupt` turns an interrupt into a final
checkpoint, partial statistics and a documented exit code instead of a
traceback. ``repro sweep`` runs its workloads one after another in the
calling process (see :mod:`repro.cli`); there is no process pool.

Exports resolve lazily (PEP 562, like :mod:`repro.reliability`): the
interrupt hook imports the engine, and an eager import here would slow
``import repro``.
"""

import importlib

_EXPORTS = {
    "EXIT_CODES": "repro.supervision.interrupt",
    "InterruptHook": "repro.supervision.interrupt",
    "graceful_signals": "repro.supervision.interrupt",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
