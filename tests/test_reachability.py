"""Every module under ``src/repro`` is reached by something a user runs.

Two guards.  The first is module-level.  The roots are the command line
(``repro.cli`` and ``python -m repro``) and every ``repro`` import of the
benchmark harness (``bench/``), the examples (``examples/``) and the paper
benchmarks (``benchmarks/``).
From there the scan follows import statements — module level or inside a
function — through the source's AST, without importing anything.

A package ``__init__`` that re-exports its submodules does not make them
reachable: ``from repro.core import policy_by_name`` reaches the module
that defines ``policy_by_name`` and no other, and ``import repro.core``
reaches none.  A module that only its own package (or a test) imports is
dead code, and this test names it.

The second is name-level, for ``src/repro/middleware``: every public
top-level function and class, and every public method, property or class
attribute of those classes, must be named somewhere outside ``tests/`` —
in ``src``, ``bench``, ``examples``, ``benchmarks`` or ``tools``, and
outside its own body.  A name counts as named when it appears as an
identifier or an attribute, or in a ``"module:Qualified.name"`` string
(how the bench tracer wraps functions).  The match is by bare name, so a
common one (``path``, ``name``) passes wherever it appears.  Dunders,
which the interpreter calls, and the names in
:data:`UNREFERENCED_BY_DESIGN` are exempt.
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


# -- name level ------------------------------------------------------------------------

#: Where a reference counts: everywhere but ``tests/``.
REFERENCE_DIRS = ("src", "bench", "examples", "benchmarks", "tools")
#: The packages whose public names the guard checks.
NAME_CHECKED = (SRC / "repro" / "middleware",)

#: Public names no code outside ``tests/`` names, each with the reason.
UNREFERENCED_BY_DESIGN = {
    # Scheduler hooks: the Master Agent and the lab read them off any
    # policy, so they stay part of the plug-in interface even where one
    # policy's override is named nowhere else.
    "sort": "PluginScheduler hook: every agent's ranking",
    "rank_key": "PluginScheduler hook: the resident and flat elections' key",
    "score_inputs": "PluginScheduler hook: the flat election's rows",
    "score_keys": "PluginScheduler hook: the flat election's keys",
    # Plug-in points of the DIET model that the shipped experiments leave
    # at their defaults.
    "set_estimation_function": "DIET's estimation-function plug-in (Section II-A)",
}


def _references(roots) -> list[tuple[Path, int, str]]:
    """``(file, line, name)`` for every identifier, attribute and tracer target."""
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    found.append((path, node.lineno, node.id))
                elif isinstance(node, ast.Attribute):
                    found.append((path, node.lineno, node.attr))
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("repro.")
                    and ":" in node.value
                ):
                    for part in node.value.split(":", 1)[1].split("."):
                        found.append((path, node.lineno, part))
    return found


def _public_definitions(directory: Path) -> list[tuple[Path, str, range, str]]:
    """``(file, name, own lines, qualified name)`` for the public names under ``directory``.

    The names are top-level functions and classes, and the methods,
    properties and class attributes (dataclass fields included) of those
    classes.
    """
    definitions = []

    def add(path, name, node, owner):
        if not name.startswith("_") and name not in UNREFERENCED_BY_DESIGN:
            own = range(node.lineno, node.end_lineno + 1)
            definitions.append((path, name, own, f"{owner}{name}"))

    def visit(path, body, owner):
        for node in body:
            if owner and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        add(path, target.id, node, owner)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                add(path, node.name, node, owner)
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if isinstance(node, ast.ClassDef) and not owner and not dunder:
                    visit(path, node.body, f"{node.name}.")

    for path in sorted(directory.rglob("*.py")):
        visit(path, _parse(path).body, "")
    return definitions


def unreferenced_names(directories=NAME_CHECKED, roots=None) -> list[str]:
    """The public names under ``directories`` that nothing outside ``tests/`` names."""
    references: dict[str, list[tuple[Path, int]]] = {}
    roots = roots if roots is not None else [ROOT / name for name in REFERENCE_DIRS]
    for path, line, name in _references(roots):
        references.setdefault(name, []).append((path, line))
    missing = []
    for directory in directories:
        for path, name, own, qualified in _public_definitions(directory):
            if not any(
                not (where == path and line in own) for where, line in references.get(name, ())
            ):
                where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                missing.append(f"{where}: {qualified}")
    return missing


def test_every_public_middleware_name_is_referenced_outside_the_tests():
    assert unreferenced_names() == []


def test_a_name_only_tests_reach_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Outcome:\n"
        "    label = 'unread'\n"
        "    flag: bool = True\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def only_itself(self):\n"
        "        return self.only_itself\n"
        "    def sort(self):\n"
        "        return None\n"
        "    def __repr__(self):\n"
        "        return 'Outcome'\n"
        "def _private():\n"
        "    return None\n",
        "utf-8",
    )
    caller = tmp_path / "caller"
    caller.mkdir()
    (caller / "run.py").write_text(
        "from pkg.mod import Outcome\nOutcome().used()\nOutcome.flag\n"
        "TRACED = 'repro.pkg.mod:Outcome.x'\n",
        "utf-8",
    )
    found = unreferenced_names([package], roots=[package, caller])
    assert [name.rsplit(": ", 1)[1] for name in found] == [
        "Outcome.label", "Outcome.only_itself",
    ]
