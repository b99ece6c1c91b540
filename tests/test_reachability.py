"""Every module under ``src/repro`` is reached by something a user runs.

Four guards.  The first is module-level.  The roots are the command line
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

The fourth is parameter-level: the name guard sees an option as read
wherever its attribute is, so a keyword only tests pass would pass it.
Every optional parameter of a public function, method or constructor
under ``src/repro`` — keyword-only, or positional with a default — and
every public defaulted field of a public dataclass, must be passed by
some call outside ``tests/``.  A call counts when its callee resolves by
name to the definition: ``f(...)``, ``x.method(...)``,
``Class.method(...)``, ``cls(...)`` inside the class, a subclass's name
for an inherited field, a module-level alias of the class
(``ProvisioningSource = ProvisioningConfig``), ``super().__init__`` and
``functools.partial(f, ..., name=...)``.  Positional arguments fill
parameters and dataclass fields in order (past ``self``), and a
``*starred`` one fills the rest (``SWFJob(*columns)``).  Three
``**mapping`` routes count too:

- a function that passes its own ``**kwargs`` on forwards what reaches
  it (``policy_by_name(name, **kwargs)``);
- a mapping whose keys the calling function spells out (``{"k": v}``,
  ``dict(k=v)``, ``kwargs["k"] = v``) passes those keys;
- any other mapping reaches every parameter, because its keys are data:
  ``EVENT_KINDS[kind](**data)`` from timeline files.

A table resolves to every name its value mentions: a module-level one
(``EVENT_KINDS[kind]``, ``factory = _POLICIES.get(key)``), or a literal
a function assigns (``makers[i % 3](i // 3)`` after
``makers = (orion_spec, taurus_spec, sagittaire_spec)``).

The exceptions are in :data:`UNPASSED_BY_DESIGN`, each with its reason.
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
    """Name -> defining ``repro`` module, from ``package``'s ``_EXPORTS`` table.

    A package resolves its public names lazily (``repro.lazy_exports``)
    from one module-level dict literal mapping each name to the module
    that defines it.
    """
    for node in _parse(FILES[package]).body:
        if (
            isinstance(node, ast.Assign)
            and [ast.unparse(target) for target in node.targets] == ["_EXPORTS"]
        ):
            table = ast.literal_eval(node.value)
            assert set(table.values()) <= set(FILES), f"{package}: unknown module"
            return table
    return {}


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


# -- parameter level -------------------------------------------------------------------

#: Parameters no call outside ``tests/`` passes, each with the reason.  A key
#: is ``Class.parameter`` for a constructor (a dataclass field included),
#: ``Class.method.parameter`` for a method and ``function.parameter`` otherwise.
UNPASSED_BY_DESIGN = {
    # DIET's plug-in point: a SeD's estimation function is what a deployment
    # replaces to report its own figures (the CoRI collector's role).
    "ServerDaemon.estimation_function": "DIET's plug-in estimation hook on a SeD",
    # State, not settings: the default is where the object starts.
    "Task.task_id": "identity from the process counter; dataclasses.replace re-passes it",
    "Task.state": "lifecycle state the driver advances; dataclasses.replace re-passes it",
    "PlanDecision.start_now": "a plan's output list, which the policy appends to",
    "PlanDecision.reservations": "a plan's output list, which the policy appends to",
    "TenantStats.admitted": "a counter the admission controller increments from zero",
    "TenantStats.rejected": "a counter the admission controller increments from zero",
    "TenantStats.shed": "a counter the admission controller increments from zero",
    # A listener's signature, not an option: the node's power listener
    # passes the node, the queue's mutation listener passes nothing.
    "ServerDaemon.invalidate_estimation.node": "the power listener's argument, unused",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ast.unparse(target).rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _own_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """``(name, has a default)`` for the ``__init__`` fields a dataclass declares."""
    fields = []
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and any(
            keyword.arg == "init" and ast.unparse(keyword.value) == "False"
            for keyword in value.keywords
        ):
            continue
        fields.append((statement.target.id, value is not None))
    return fields


class _Callable:
    """A public function, method or constructor: the names that call it, what it takes."""

    def __init__(self, path, qualified, callees, own, checked, positional=()):
        self.path = path
        self.qualified = qualified  # "function", "Class" or "Class.method"
        self.callees = callees  # the names a call spells: its own, or a subclass's
        self.own = own  # its own lines: a call from inside them does not count
        self.checked = checked  # the parameters the guard checks
        self.positional = positional  # every field, in the order positions fill them


def _callables(directory: Path) -> list[_Callable]:
    """Every public function, method and constructor under ``directory``.

    A function or method is checked for its keyword-only parameters, a
    dataclass for its public defaulted fields.  A constructor is also
    called through its subclasses' names.
    """
    modules = [(path, _parse(path)) for path in sorted(directory.rglob("*.py"))]
    classes = {
        node.name: node
        for _, tree in modules
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def bases(node):
        return [
            classes[base.id]
            for base in node.bases
            if isinstance(base, ast.Name) and base.id in classes
        ]

    def fields(node):
        if not _is_dataclass(node):
            return []
        names = []
        for base in bases(node):
            names += [name for name in fields(base) if name not in names]
        return names + [name for name, _ in _own_fields(node) if name not in names]

    aliases = {}  # class name -> the module-level names bound to it (``A = B``)
    for _, tree in modules:
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.setdefault(node.value.id, set()).add(target.id)

    def callees(name):
        found, pending = {name}, [name]
        while pending:
            parent = pending.pop()
            for node in classes.values():
                if node.name not in found and parent in (base.name for base in bases(node)):
                    found.add(node.name)
                    pending.append(node.name)
        return frozenset(found).union(*(aliases.get(name, ()) for name in found))

    def lines(node):
        return range(node.lineno, node.end_lineno + 1)

    def positional(function, bound):
        """The parameters a call's positions fill, past ``self``/``cls`` when ``bound``."""
        names = [argument.arg for argument in function.args.posonlyargs + function.args.args]
        static = any(ast.unparse(d) == "staticmethod" for d in function.decorator_list)
        return tuple(names[1:] if bound and not static else names)

    def optional(function, bound):
        """Its keyword-only parameters and its defaulted positional ones."""
        filled = positional(function, bound)
        defaulted = filled[len(filled) - len(function.args.defaults):]
        keyword_only = tuple(argument.arg for argument in function.args.kwonlyargs)
        return defaulted + keyword_only

    def function(path, qualified, callees, node, bound):
        return _Callable(
            path, qualified, callees, lines(node), optional(node, bound), positional(node, bound)
        )

    found = []
    for path, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    found.append(function(path, node.name, {node.name}, node, bound=False))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            constructor = callees(node.name)
            if _is_dataclass(node):
                checked = tuple(
                    name
                    for name, default in _own_fields(node)
                    if default and not name.startswith("_")
                )
                found.append(
                    _Callable(path, node.name, constructor, range(0), checked, fields(node))
                )
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    found.append(function(path, node.name, constructor, member, bound=True))
                elif not member.name.startswith("_"):
                    found.append(
                        function(
                            path, f"{node.name}.{member.name}", {member.name}, member, bound=True
                        )
                    )
    return found


def _spelled_keys(value) -> set[str] | None:
    """The keys of a mapping the code spells out (``{"k": v}``, ``dict(k=v)``), else ``None``."""
    if isinstance(value, ast.Dict) and all(
        isinstance(key, ast.Constant) and isinstance(key.value, str) for key in value.keys
    ):
        return {key.value for key in value.keys}
    if (
        isinstance(value, ast.Call)
        and ast.unparse(value.func) == "dict"
        and not value.args
        and all(keyword.arg for keyword in value.keywords)
    ):
        return {keyword.arg for keyword in value.keywords}
    return None


class _Calls(ast.NodeVisitor):
    """What the calls under ``roots`` pass, by the name of their callee.

    ``keywords`` maps a callee to the ``(keyword, file, line)`` it is
    passed and ``positional`` to the ``(count, starred, file, line)`` of
    its positional arguments.  ``everything`` maps it to where a call
    passes it a ``**mapping`` whose keys are data (a timeline file, a
    preset table, ``--set KEY=VALUE``), which reaches every parameter.
    A ``**mapping`` whose keys the calling function spells out
    (``{"seed": …}``, ``kwargs["seed"] = …``) passes those keys.
    ``forwards`` maps a callee to the callees it passes its own
    ``**keywords`` on to; what reaches a forwarder reaches them too.
    """

    def __init__(self, roots):
        self.keywords: dict[str, list[tuple[str, Path, int]]] = {}
        self.positional: dict[str, list[tuple[int, bool, Path, int]]] = {}
        self.everything: dict[str, list[tuple[Path, int]]] = {}
        self.forwards: dict[str, set[str]] = {}
        for root in roots:
            for path in sorted(root.rglob("*.py")):
                self._scan(path, _parse(path))
        self._follow_forwards()

    def _scan(self, path, tree):
        self.path = path
        self.aliases = {}  # local spelling -> imported name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = alias.name
        self.tables = {}  # module-level name -> the names its value mentions
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.tables[target.id] = [
                            self.aliases.get(name.id, name.id)
                            for name in ast.walk(node.value)
                            if isinstance(name, ast.Name)
                        ]
        self.classes = []  # the enclosing class, innermost last
        self.functions = []  # the enclosing functions' facts, innermost last
        self.visit(tree)

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        owner = self.classes[-1].name if self.classes else None
        self.functions.append(
            {
                "callee": owner if node.name == "__init__" and owner else node.name,
                "kwarg": node.args.kwarg.arg if node.args.kwarg else None,
                **self._locals(node),
            }
        )
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _table(self, value) -> list[str] | None:
        """The names ``TABLE[key]`` or ``TABLE.get(key)`` may give, for a module-level table."""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            if value.func.attr == "get":
                value = value.func.value
        elif isinstance(value, ast.Subscript):
            value = value.value
        if isinstance(value, ast.Name):
            local = self.functions[-1]["tables"] if self.functions else {}
            return local.get(value.id, self.tables.get(value.id))
        return None

    def _locals(self, function):
        """A function's spelled-out mappings, literal tables and locals drawn from a table."""
        spelled, drawn, tables = {}, {}, {}
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        keys, known = _spelled_keys(node.value), spelled.get(target.id, set())
                        spelled[target.id] = (
                            None if keys is None or known is None else known | keys
                        )
                        table = self._table(node.value)
                        if table is not None:
                            drawn[target.id] = table
                        if isinstance(node.value, (ast.Tuple, ast.List, ast.Dict)):
                            tables[target.id] = [
                                self.aliases.get(name.id, name.id)
                                for name in ast.walk(node.value)
                                if isinstance(name, ast.Name)
                            ]
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and spelled.get(node.value.id) is not None
            ):
                key = node.slice
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    spelled[node.value.id].add(key.value)
                else:
                    spelled[node.value.id] = None
        return {"spelled": spelled, "drawn": drawn, "tables": tables}

    def _callees(self, func, args) -> tuple[list[str], list[ast.expr]]:
        """The names a call to ``func`` may resolve to, and the positional arguments they get."""
        local = self.functions[-1] if self.functions else {"drawn": {}}
        if isinstance(func, ast.Name):
            if func.id in local["drawn"]:
                return local["drawn"][func.id], args  # factory = TABLE.get(key)
            if func.id == "cls" and self.classes:
                return [self.classes[-1].name], args
            name = self.aliases.get(func.id, func.id)
        elif isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Subscript):
            return self._table(func) or [], args  # TABLE[key](...)
        else:
            return [], args
        if name == "partial" and args:
            return self._callees(args[0], args[1:])
        if name == "replace" and args and ast.unparse(args[0]) == "self" and self.classes:
            return [self.classes[-1].name], []  # dataclasses.replace(self, **changes)
        if (
            name == "__init__"
            and isinstance(func.value, ast.Call)
            and ast.unparse(func.value.func) == "super"
            and self.classes
        ):
            return [ast.unparse(base) for base in self.classes[-1].bases], args
        return [name], args

    def visit_Call(self, node):
        callees, args = self._callees(node.func, node.args)
        local = self.functions[-1] if self.functions else {"kwarg": None, "spelled": {}}
        where = (self.path, node.lineno)
        starred = any(isinstance(argument, ast.Starred) for argument in args)
        count = sum(not isinstance(argument, ast.Starred) for argument in args)
        for callee in callees:
            if args:
                self.positional.setdefault(callee, []).append((count, starred, *where))
            for keyword in node.keywords:
                value = keyword.value
                if keyword.arg is not None:
                    keys = {keyword.arg}
                elif isinstance(value, ast.Name) and value.id == local["kwarg"]:
                    self.forwards.setdefault(local["callee"], set()).add(callee)
                    continue
                elif isinstance(value, ast.Name) and local["spelled"].get(value.id) is not None:
                    keys = local["spelled"][value.id]
                elif (keys := _spelled_keys(value)) is None:  # not f(**{"k": v})
                    self.everything.setdefault(callee, []).append(where)
                    continue
                self.keywords.setdefault(callee, []).extend((key, *where) for key in keys)
        self.generic_visit(node)

    def _follow_forwards(self):
        """What reaches a forwarder reaches the callees it forwards to, transitively."""
        changed = True
        while changed:
            changed = False
            for forwarder, targets in self.forwards.items():
                for table in (self.keywords, self.everything):
                    for target in targets:
                        known = table.setdefault(target, [])
                        for passed in table.get(forwarder, []):
                            if passed not in known:
                                known.append(passed)
                                changed = True


def _is_passed(parameter: str, definition: _Callable, calls: _Calls) -> bool:
    def outside(path, line):
        return not (path == definition.path and line in definition.own)

    index = (
        definition.positional.index(parameter)
        if parameter in definition.positional
        else None
    )
    for callee in definition.callees:
        if any(outside(*where) for where in calls.everything.get(callee, [])):
            return True
        if any(
            keyword == parameter and outside(path, line)
            for keyword, path, line in calls.keywords.get(callee, [])
        ):
            return True
        if index is not None and any(
            (index < count or starred) and outside(path, line)
            for count, starred, path, line in calls.positional.get(callee, [])
        ):
            return True
    return False


def unpassed_parameters(directories=NAME_CHECKED, roots=None) -> list[str]:
    """The checked parameters under ``directories`` that no call outside ``tests/`` passes."""
    roots = roots if roots is not None else [ROOT / name for name in REFERENCE_DIRS]
    calls = _Calls(roots)
    missing = []
    for directory in directories:
        for definition in _callables(directory):
            for parameter in definition.checked:
                qualified = f"{definition.qualified}.{parameter}"
                if qualified not in UNPASSED_BY_DESIGN and not _is_passed(
                    parameter, definition, calls
                ):
                    path = definition.path
                    where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                    missing.append(f"{where}: {qualified}")
    return missing


def test_every_parameter_is_passed_outside_the_tests():
    assert unpassed_parameters() == []


def _unpassed(tmp_path, module: str, *callers: str) -> list[str]:
    """The parameters of ``pkg/mod.py`` that ``module`` and the ``callers`` leave unpassed."""
    package = tmp_path / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(module, "utf-8")
    roots = [package]
    for index, caller in enumerate(callers):
        root = tmp_path / f"caller{index}"
        root.mkdir()
        (root / "run.py").write_text(caller, "utf-8")
        roots.append(root)
    found = unpassed_parameters([package], roots=roots)
    return [name.rsplit(": ", 1)[1] for name in found]


def test_a_keyword_only_tests_pass_is_reported(tmp_path):
    module = (
        "def build(size, *, fast=False, label='x'):\n"
        "    return size\n"
        "def _private(*, hidden=1):\n"
        "    return hidden\n"
    )
    assert _unpassed(tmp_path, module) == ["build.fast", "build.label"]
    caller = "from pkg.mod import build\nbuild(1, fast=True)\nbuild(2, label='y')\n"
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_only_public_defaulted_init_fields_of_a_dataclass_are_checked(tmp_path):
    module = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class Job:\n"
        "    job_id: int\n"
        "    cores: int = 1\n"
        "    _cache: dict = field(default_factory=dict)\n"
        "    done: bool = field(default=False, init=False)\n"
        "    KIND: ClassVar[str] = 'job'\n"
        "    user: str = 'u0'\n"
    )
    assert _unpassed(tmp_path, module, "from pkg.mod import Job\nJob(0)\n") == [
        "Job.cores", "Job.user",
    ]


def test_a_method_counts_through_any_receiver(tmp_path):
    module = (
        "class Store:\n"
        "    def get(self, key, *, cached=True):\n"
        "        return key\n"
        "    @classmethod\n"
        "    def open(cls, *, path='.'):\n"
        "        return cls()\n"
    )
    assert _unpassed(tmp_path, module) == ["Store.get.cached", "Store.open.path"]
    caller = "from pkg.mod import Store\nStore.open(path='/').get(1, cached=False)\n"
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_cls_inside_the_class_calls_its_constructor(tmp_path):
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Source:\n"
        "    kind: str = 'generator'\n"
        "    tick: float = 60.0\n"
        "    @classmethod\n"
        "    def capacity(cls):\n"
        "        return cls(kind='capacity')\n"
    )
    assert _unpassed(tmp_path, module) == ["Source.tick"]


def test_a_defaulted_positional_parameter_is_checked(tmp_path):
    module = (
        "def spec(index=0):\n"
        "    return index\n"
        "class Agent:\n"
        "    def __init__(self, name='ma', *, seed=0):\n"
        "        self.name = name\n"
        "    def scale(self, factor=1.0):\n"
        "        return factor\n"
        "    @staticmethod\n"
        "    def build(size=1):\n"
        "        return size\n"
    )
    assert _unpassed(tmp_path, module) == [
        "spec.index", "Agent.name", "Agent.seed", "Agent.scale.factor", "Agent.build.size",
    ]
    caller = (
        "from pkg.mod import Agent, spec\n"
        "spec(3)\n"
        "agent = Agent('other', seed=1)\n"
        "agent.scale(2.0)\n"
        "Agent.build(4)\n"
    )
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_a_local_literal_table_resolves_to_its_names(tmp_path):
    module = "def orion(index=0):\n    return index\ndef taurus(index=0):\n    return index\n"
    caller = (
        "from pkg.mod import orion, taurus\n"
        "def cycle(count):\n"
        "    makers = (orion, taurus)\n"
        "    return [makers[i % 2](i // 2) for i in range(count)]\n"
    )
    assert _unpassed(tmp_path, module) == ["orion.index", "taurus.index"]
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_a_module_level_alias_calls_the_class(tmp_path):
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    period: float = 1.0\n"
        "Source = Config\n"
    )
    assert _unpassed(tmp_path, module) == ["Config.period"]
    caller = "from pkg.mod import Source\nSource(period=2.0)\n"
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_functools_partial_passes_its_keywords(tmp_path):
    module = "def step(engine, *, label=''):\n    return engine\n"
    caller = (
        "import functools\n"
        "from pkg.mod import step\n"
        "HOOK = functools.partial(step, label='tick')\n"
    )
    assert _unpassed(tmp_path, module) == ["step.label"]
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_positional_arguments_fill_dataclass_fields_in_order(tmp_path):
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Row:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 0\n"
    )
    assert _unpassed(tmp_path, module, "from pkg.mod import Row\nRow(1, 2)\n") == ["Row.c"]
    starred = "from pkg.mod import Row\nRow(*'123')\n"
    assert _unpassed(tmp_path / "b", module, starred) == []


def test_a_subclass_call_reaches_an_inherited_field(tmp_path):
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Event:\n"
        "    time: float\n"
        "    scheduled: bool = True\n"
        "@dataclass\n"
        "class Burst(Event):\n"
        "    factor: float = 2.0\n"
    )
    caller = "from pkg.mod import Burst\nBurst(1.0, scheduled=False, factor=3.0)\n"
    assert _unpassed(tmp_path, module, caller) == []
    assert _unpassed(tmp_path / "b", module, "from pkg.mod import Burst\nBurst(1.0)\n") == [
        "Event.scheduled", "Burst.factor",
    ]


def test_super_init_calls_the_base_constructor(tmp_path):
    module = (
        "class Base:\n"
        "    def __init__(self, *, period=1.0):\n"
        "        self.period = period\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(period=5.0)\n"
    )
    assert _unpassed(tmp_path, module) == []


def test_a_call_from_inside_the_definition_does_not_count(tmp_path):
    module = (
        "def countdown(n, *, step=1):\n"
        "    return countdown(n - step, step=step) if n > 0 else 0\n"
    )
    assert _unpassed(tmp_path, module, "from pkg.mod import countdown\ncountdown(3)\n") == [
        "countdown.step",
    ]


def test_forwarded_keywords_reach_the_forwarding_target(tmp_path):
    module = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    policy: str = 'POWER'\n"
        "    seed: int = 0\n"
        "    def replace(self, **changes):\n"
        "        return dataclasses.replace(self, **changes)\n"
    )
    caller = "from pkg.mod import Spec\nSpec().replace(seed=3)\nSpec(policy='RANDOM')\n"
    assert _unpassed(tmp_path, module) == ["Spec.policy", "Spec.seed"]
    assert _unpassed(tmp_path / "b", module, caller) == []


def test_a_spelled_out_mapping_passes_only_its_keys(tmp_path):
    module = (
        "class Random:\n"
        "    def __init__(self, *, seed=0, spread=1.0):\n"
        "        self.seed = seed\n"
        "_POLICIES = {'RANDOM': Random}\n"
        "def by_name(name, **kwargs):\n"
        "    factory = _POLICIES.get(name)\n"
        "    return factory(**kwargs)\n"
    )
    caller = (
        "from pkg.mod import by_name\n"
        "def build(seed):\n"
        "    kwargs = {}\n"
        "    kwargs['seed'] = seed\n"
        "    return by_name('random', **kwargs)\n"
    )
    assert _unpassed(tmp_path, module, caller) == ["Random.spread"]
    literal = "from pkg.mod import by_name\nby_name('random', **{'spread': 2.0})\n"
    assert _unpassed(tmp_path / "b", module, literal) == ["Random.seed"]


def test_a_mapping_of_data_reaches_every_parameter(tmp_path):
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Config:\n"
        "    nodes: int = 4\n"
        "    horizon: float = 60.0\n"
        "@dataclass\n"
        "class Tariff:\n"
        "    time: float\n"
        "    cost: float = 1.0\n"
        "KINDS = {'tariff': Tariff}\n"
        "def config_for(overrides):\n"
        "    params = dict(overrides)\n"
        "    return Config(**params)\n"
        "def event_from(kind, data):\n"
        "    return KINDS[kind](**data)\n"
    )
    assert _unpassed(tmp_path, module) == []


def test_an_allow_listed_parameter_is_not_reported(tmp_path, monkeypatch):
    module = "def serve(*, hook=None):\n    return hook\n"
    assert _unpassed(tmp_path, module) == ["serve.hook"]
    monkeypatch.setitem(UNPASSED_BY_DESIGN, "serve.hook", "a plug-in point")
    assert _unpassed(tmp_path / "b", module) == []


def test_every_allow_listed_parameter_is_checked_and_has_a_reason():
    """A stale entry would exempt a parameter a later change might reintroduce unpassed."""
    checked = {
        f"{definition.qualified}.{parameter}"
        for definition in _callables(SRC / "repro")
        for parameter in definition.checked
    }
    for name, reason in UNPASSED_BY_DESIGN.items():
        assert name in checked, name
        assert reason.strip() and "test" not in reason, name
