"""Every module under ``src/repro`` is reached from something a user runs.

A static walk, no imports executed: ``ast`` reads each file's imports —
top-level or inside a function — and the dotted ``"repro.x"`` strings
that PEP 562 lazy-export maps (and ``importlib.import_module``) resolve
at run time. Starting from the package, the CLI, ``python -m repro``
and every script in ``examples/`` and ``benchmarks/``, a module that no
chain of these reaches is code only its own tests run; the test names
each one. (The package uses absolute imports only; a relative one would
show up here as an unreached module.)
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro", "repro.cli", "repro.__main__")
ENTRY_SCRIPTS = ("examples", "benchmarks")


def _modules():
    """``{dotted name: path}`` for every module under src/."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _names(path: Path):
    """Every dotted name the file imports or spells out as a string."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            # ``from package import name`` may import submodule ``name``.
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                yield node.value


def _reached(path: Path, modules):
    """The known modules a file loads: importing ``a.b.c`` runs ``a``
    and ``a.b`` first."""
    for name in _names(path):
        parts = name.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules:
                yield prefix


def test_every_src_module_is_reachable_from_an_entry_point():
    modules = _modules()
    frontier = set(ENTRY_MODULES)
    for folder in ENTRY_SCRIPTS:
        for script in sorted((ROOT / folder).glob("*.py")):
            frontier.update(_reached(script, modules))
    seen = set()
    while frontier:
        module = frontier.pop()
        if module not in seen:
            seen.add(module)
            frontier.update(_reached(modules[module], modules))
    orphans = sorted(set(modules) - seen)
    assert not orphans, f"modules no entry point reaches: {', '.join(orphans)}"
