"""Every module under ``src/repro`` is reached by something a user runs.

The roots are the command line (``repro.cli`` and ``python -m repro``)
and every ``repro`` import of the benchmark harness (``bench/``), the
examples (``examples/``) and the paper benchmarks (``benchmarks/``).
From there the scan follows import statements — module level or inside a
function — through the source's AST, without importing anything.

A package ``__init__`` that re-exports its submodules does not make them
reachable: ``from repro.core import policy_by_name`` reaches the module
that defines ``policy_by_name`` and no other, and ``import repro.core``
reaches none.  A module that only its own package (or a test) imports is
dead code, and this test names it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = ("repro.cli", "repro.__main__")
CLIENT_DIRS = ("bench", "examples", "benchmarks")


def _module_files() -> dict[str, Path]:
    """Dotted name -> file, for every module and package under ``src/repro``."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


FILES = _module_files()
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"), filename=str(path))


def _exported_by(package: str) -> dict[str, str]:
    """Name -> defining ``repro`` module, for ``package``'s ``from`` re-exports."""
    exports = {}
    for node in ast.walk(_parse(FILES[package])):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in FILES:
            for alias in node.names:
                exports[alias.asname or alias.name] = node.module
    return exports


def _imported_by(tree: ast.Module) -> set[str]:
    """The ``repro`` modules ``tree`` imports, resolving package re-exports by name."""
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reached.update(alias.name for alias in node.names if alias.name in FILES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in FILES:
            reached.add(node.module)
            if node.module not in PACKAGES:
                continue
            exports = _exported_by(node.module)
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in FILES:
                    reached.add(submodule)
                elif alias.name in exports:
                    reached.add(exports[alias.name])
    return reached


def _roots() -> set[str]:
    roots = set(ENTRY_POINTS)
    for directory in CLIENT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots |= _imported_by(_parse(path))
    return roots


def reachable() -> set[str]:
    """Every ``repro`` module the roots import, transitively."""
    seen: set[str] = set()
    pending = sorted(_roots())
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in PACKAGES:
            continue  # a package's own re-exports reach nothing
        pending.extend(_imported_by(_parse(FILES[name])) - seen)
    return seen


def test_the_scan_sees_the_entry_points_and_the_clients():
    assert set(ENTRY_POINTS) <= set(FILES)
    roots = _roots()
    assert "repro.lab.session" in roots  # examples import the lab
    assert "repro.middleware.driver" in roots  # the benchmark imports the driver


def test_a_package_reexport_reaches_only_the_defining_module():
    tree = ast.parse("from repro.core import policy_by_name\nimport repro.util\n")
    assert _imported_by(tree) == {"repro.core", "repro.core.policies", "repro.util"}


def test_every_module_is_reachable():
    modules = {name for name in FILES if name not in PACKAGES}
    assert sorted(modules - reachable()) == []


def test_imports_inside_functions_are_followed():
    tree = ast.parse(
        "def run():\n"
        "    from repro.scenario.events import EventTimeline\n"
        "    import repro.util.stats\n"
    )
    assert _imported_by(tree) == {"repro.scenario.events", "repro.util.stats"}


def test_a_submodule_imported_from_its_package_is_reached():
    tree = ast.parse("from repro.scenario import events\n")
    assert _imported_by(tree) == {"repro.scenario", "repro.scenario.events"}


def test_src_has_no_relative_imports():
    """The scan follows absolute imports only; a relative one would hide an edge."""
    relative = [
        name
        for name, path in FILES.items()
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert relative == []


def test_a_module_nothing_imports_is_reported(tmp_path, monkeypatch):
    orphan = tmp_path / "orphan.py"
    orphan.write_text("from repro.util.stats import RunningStats\n", "utf-8")
    monkeypatch.setitem(FILES, "repro.orphan", orphan)
    modules = {name for name in FILES if name not in PACKAGES}
    assert sorted(modules - reachable()) == ["repro.orphan"]
