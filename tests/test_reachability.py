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

The second is name-level, over all of ``src/repro``: every public
top-level function and class, and every public method, property or class
attribute of those classes, must be read somewhere outside ``tests/`` —
in ``src``, ``bench``, ``examples``, ``benchmarks`` or ``tools``, and
outside its own body.  A member (method, property, class attribute)
counts as read only by an attribute read (``x.name``), a
``getattr``/``hasattr`` string or a ``"module:Qualified.name"`` string
(how the bench tracer wraps functions).  A bare identifier of the same
spelling is a local variable and does not count.  A top-level name
counts as read by the same, or by an identifier in a file that defines
or imports it (``from module import name``).  There is no type
inference: a member name shared by several classes counts as read for
all of them when any of them is read.  Dunders, which the interpreter
calls, and the names in :data:`UNREFERENCED_BY_DESIGN` (bare, or
qualified as ``Class.name``) are exempt.

A third guard is setter-level: the name guard sees a property as read
wherever its getter is, so a setter only tests call would pass it.  Every
``@<prop>.setter`` under ``src/repro`` must therefore be assigned
(``x.<prop> = …``, augmented, or ``setattr`` with the name as a string)
somewhere outside ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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
NAME_CHECKED = (SRC / "repro",)

#: Public names no code outside ``tests/`` reads, each with the reason.
UNREFERENCED_BY_DESIGN = {
    # Scheduler hooks: the Master Agent and the lab read them off any
    # policy, so they stay part of the plug-in interface even where one
    # policy's override is named nowhere else.
    "sort": "PluginScheduler hook: every agent's ranking",
    "rank_key": "PluginScheduler hook: the resident and flat elections' key",
    "score_inputs": "PluginScheduler hook: the flat election's rows",
    "score_keys": "PluginScheduler hook: the flat election's keys",
    # Safety code: the property harness and the doctests drive it.
    "check_schedule": "the queue simulator's invariant checker (no overcommit, exact outcomes)",
    # Format fields, filled from the file or kept because the format names them.
    "SWFJob.average_cpu_time": "SWF column 6, parsed so every record keeps all 18 fields",
    "SWFJob.used_memory": "SWF column 7, parsed so every record keeps all 18 fields",
    "SWFJob.requested_processors": "SWF column 8, parsed so every record keeps all 18 fields",
    "SWFJob.requested_memory": "SWF column 10, parsed so every record keeps all 18 fields",
    "SWFJob.preceding_job": "SWF column 17, parsed so every record keeps all 18 fields",
    "SWFJob.think_time": "SWF column 18, parsed so every record keeps all 18 fields",
    # Kept while the benchmark calls it: bench/micro passes
    # release_core(busy_seconds=), the option that feeds this counter.
    "Node.total_busy_core_seconds": "the counter release_core(busy_seconds=) feeds",
}

_GETATTR = frozenset({"getattr", "hasattr"})


class _References:
    """What the reference directories read, by the kind of read.

    ``members`` holds ``(file, line, name)`` for every attribute read
    (``x.name``), every ``getattr``/``hasattr`` string and every part of a
    tracer target (``"repro.module:Qualified.name"``).  ``globals`` holds
    the same for a bare identifier read in a file that defines or imports
    a top-level name of that spelling; an identifier a file neither
    defines nor imports is a local variable, and reaches nothing.
    """

    def __init__(self, roots):
        self.members: dict[str, list[tuple[Path, int]]] = {}
        self.globals: dict[str, list[tuple[Path, int]]] = {}
        for root in roots:
            for path in sorted(root.rglob("*.py")):
                self._scan(path, _parse(path))

    def _scan(self, path, tree):
        bound = {}  # local spelling -> the top-level name it stands for
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound[node.name] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self._add(self.members, node.attr, path, node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in bound:
                    self._add(self.globals, bound[node.id], path, node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _GETATTR and len(node.args) >= 2:
                    attribute = node.args[1]
                    if isinstance(attribute, ast.Constant) and isinstance(attribute.value, str):
                        self._add(self.members, attribute.value, path, node)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("repro.")
                and ":" in node.value
            ):
                for part in node.value.split(":", 1)[1].split("."):
                    self._add(self.members, part, path, node)

    @staticmethod
    def _add(table, name, path, node):
        table.setdefault(name, []).append((path, node.lineno))

    def of(self, name: str, top_level: bool) -> list[tuple[Path, int]]:
        """Where ``name`` is read: a member by attribute, a top-level name either way."""
        found = self.members.get(name, [])
        return found + self.globals.get(name, []) if top_level else found


def _public_definitions(directory: Path) -> list[tuple[Path, str, range, str]]:
    """``(file, name, own lines, qualified name)`` for the public names under ``directory``.

    The names are top-level functions and classes, and the methods,
    properties and class attributes (dataclass fields included) of those
    classes.
    """
    definitions = []

    def add(path, name, node, owner):
        qualified = f"{owner}{name}"
        exempt = name in UNREFERENCED_BY_DESIGN or qualified in UNREFERENCED_BY_DESIGN
        if not name.startswith("_") and not exempt:
            own = range(node.lineno, node.end_lineno + 1)
            definitions.append((path, name, own, qualified))

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
    """The public names under ``directories`` that nothing outside ``tests/`` reads."""
    roots = roots if roots is not None else [ROOT / name for name in REFERENCE_DIRS]
    references = _References(roots)
    missing = []
    for directory in directories:
        for path, name, own, qualified in _public_definitions(directory):
            reads = references.of(name, top_level="." not in qualified)
            if all(where == path and line in own for where, line in reads):
                where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                missing.append(f"{where}: {qualified}")
    return missing


def test_every_public_name_is_referenced_outside_the_tests():
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


def test_a_member_read_only_as_a_local_variable_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Store:\n"
        "    def path(self):\n"
        "        return 'p'\n"
        "    def root(self):\n"
        "        return 'r'\n",
        "utf-8",
    )
    (package / "use.py").write_text(
        "from pkg.mod import Store\n"
        "def run(path):\n"
        "    root = Store().root()\n"
        "    return path, root\n",
        "utf-8",
    )
    found = unreferenced_names([package], roots=[package])
    assert [name.rsplit(": ", 1)[1] for name in found] == ["Store.path", "run"]


def test_a_top_level_name_counts_only_where_it_is_defined_or_imported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text("def build():\n    return 1\n", "utf-8")
    (package / "other.py").write_text("def run(build):\n    return build()\n", "utf-8")
    found = unreferenced_names([package], roots=[package])
    assert [name.rsplit(": ", 1)[1] for name in found] == ["build", "run"]
    (package / "other.py").write_text("from pkg.mod import build\nbuild()\n", "utf-8")
    assert unreferenced_names([package], roots=[package]) == []


def test_a_tracer_target_string_counts_as_a_reference(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Engine:\n    def step(self):\n        return 1\n", "utf-8"
    )
    caller = tmp_path / "bench"
    caller.mkdir()
    (caller / "tracer.py").write_text("TARGETS = ('repro.pkg.mod:Engine.step',)\n", "utf-8")
    assert unreferenced_names([package], roots=[package]) == [
        f"{package / 'mod.py'}: Engine", f"{package / 'mod.py'}: Engine.step",
    ]
    assert unreferenced_names([package], roots=[package, caller]) == []


def _flagged(package, *roots):
    return [name.rsplit(": ", 1)[1] for name in unreferenced_names([package], roots=roots)]


def test_an_attribute_read_counts_as_a_reference(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Meter:\n"
        "    period = 1.0\n"
        "    def sample(self):\n"
        "        return 0.0\n",
        "utf-8",
    )
    assert _flagged(package, package) == ["Meter", "Meter.period", "Meter.sample"]
    (package / "use.py").write_text(
        "from pkg.mod import Meter\n"
        "def run(meter: Meter):\n"
        "    return meter.period, meter.sample()\n",
        "utf-8",
    )
    assert _flagged(package, package) == ["run"]


@pytest.mark.parametrize("reader", ["getattr", "hasattr"])
def test_a_getattr_string_counts_as_a_reference(tmp_path, reader):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Meter:\n    def sample(self):\n        return 0.0\n", "utf-8"
    )
    (package / "use.py").write_text(
        f"from pkg.mod import Meter\nRESULT = {reader}(Meter(), 'sample')\n", "utf-8"
    )
    assert _flagged(package, package) == []


def test_a_member_name_shared_by_two_classes_counts_for_both(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Disk:\n"
        "    def close(self):\n"
        "        return None\n"
        "class Socket:\n"
        "    def close(self):\n"
        "        return None\n",
        "utf-8",
    )
    (package / "use.py").write_text(
        "from pkg.mod import Disk, Socket\nSocket\nDisk().close()\n", "utf-8"
    )
    assert _flagged(package, package) == []


def test_an_aliased_import_counts_for_the_imported_name(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text("def build():\n    return 1\n", "utf-8")
    (package / "use.py").write_text("from pkg.mod import build as make\nmake()\n", "utf-8")
    assert _flagged(package, package) == []


def test_a_read_inside_the_definition_itself_does_not_count(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def countdown(n):\n    return countdown(n - 1) if n else 0\n", "utf-8"
    )
    assert _flagged(package, package) == ["countdown"]


def test_every_allow_listed_name_is_defined_and_has_a_reason(monkeypatch):
    """A stale entry would exempt a name that a later change might reintroduce unread."""
    monkeypatch.setitem(globals(), "UNREFERENCED_BY_DESIGN", {})
    defined = set()
    for directory in NAME_CHECKED:
        for _, name, _, qualified in _public_definitions(directory):
            defined |= {name, qualified}
    monkeypatch.undo()
    for name, reason in UNREFERENCED_BY_DESIGN.items():
        assert name in defined, name
        assert reason.strip(), name


# -- setter level ----------------------------------------------------------------------


def _setters(directory: Path) -> list[tuple[Path, str, str]]:
    """``(file, property, Class.property)`` for every property setter under ``directory``."""
    found = []
    for path in sorted(directory.rglob("*.py")):
        for owner in ast.walk(_parse(path)):
            if not isinstance(owner, ast.ClassDef):
                continue
            for node in owner.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(decorator, ast.Attribute) and decorator.attr == "setter"
                    for decorator in node.decorator_list
                ):
                    found.append((path, node.name, f"{owner.name}.{node.name}"))
    return found


def _assigned_attributes(roots) -> set[str]:
    """Every attribute name the files under ``roots`` assign to, or ``setattr`` by string."""
    assigned = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    assigned.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    assigned.add(node.args[1].value)
    return assigned


def unassigned_setters(directories=NAME_CHECKED, roots=None) -> list[str]:
    """The property setters under ``directories`` that nothing outside ``tests/`` calls."""
    roots = roots if roots is not None else [ROOT / name for name in REFERENCE_DIRS]
    assigned = _assigned_attributes(roots)
    return [
        f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}: {qualified}"
        for directory in directories
        for path, name, qualified in _setters(directory)
        if name not in assigned
    ]


def test_every_setter_is_assigned_outside_the_tests():
    assert unassigned_setters() == []


def test_a_setter_only_tests_assign_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Agent:\n"
        "    @property\n"
        "    def policy(self):\n"
        "        return self._policy\n"
        "    @policy.setter\n"
        "    def policy(self, value):\n"
        "        self._policy = value\n"
        "    @property\n"
        "    def limit(self):\n"
        "        return self._limit\n"
        "    @limit.setter\n"
        "    def limit(self, value):\n"
        "        self._limit = value\n"
        "    @property\n"
        "    def name(self):\n"
        "        return 'a'\n",
        "utf-8",
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Agent\nagent = Agent()\nagent.policy = 1\nagent.limit = 2\n",
        "utf-8",
    )
    caller = tmp_path / "caller"
    caller.mkdir()
    (caller / "run.py").write_text(
        "from pkg.mod import Agent\nagent = Agent()\nprint(agent.policy)\nagent.limit += 1\n",
        "utf-8",
    )
    found = unassigned_setters([package], roots=[package, caller])
    assert [name.rsplit(": ", 1)[1] for name in found] == ["Agent.policy"]
    (caller / "run.py").write_text(
        "from pkg.mod import Agent\nsetattr(Agent(), 'policy', 3)\nAgent().limit = 4\n",
        "utf-8",
    )
    assert unassigned_setters([package], roots=[package, caller]) == []
