#!/usr/bin/env python3
"""Check that documentation references resolve.

Four families of checks, all run by CI:

* **Markdown links** — scans README.md and docs/**/*.md for
  ``[text](target)`` links and fails (exit 1) when a relative target does
  not exist on disk, or when a ``#fragment`` does not match a heading of
  the target document.  External ``http(s)://`` and ``mailto:`` links are
  not fetched — CI must not depend on the network — only their syntax is
  accepted.
* **Docstring cross-references** — scans ``src/**/*.py`` for Sphinx-style
  roles (``:mod:`repro.x```, ``:class:`~repro.x.Y```, …) and fails when a
  ``repro.*`` target does not import/resolve.  This is what keeps module
  docstrings honest when code moves: a reference to a renamed policy
  module fails the build instead of silently going stale.
* **Example imports** — every ``from repro… import …`` (and
  ``import repro…``) statement in a ```` ```python ```` block of the
  same Markdown documents must resolve, so a snippet never imports a
  name the package no longer has.
* **CLI lines** — every ``repro …`` command line in a ```` ```sh ````
  block of the same documents must parse with
  :func:`repro.cli.build_parser` (nothing is run), so the docs never
  show a subcommand or option the CLI no longer has.

Run from the repository root (CI does)::

    python tools/check_doc_links.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path

# The checker resolves :mod:/:class:/... targets by importing them, which
# needs the src layout on the path even outside an installed environment.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
IMAGE = re.compile(r"!\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug of a heading."""
    text = re.sub(r"[`*_~]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    return {slugify(match) for match in HEADING.findall(path.read_text("utf-8"))}


def check_file(path: Path, root: Path) -> list[str]:
    errors: list[str] = []
    text = path.read_text("utf-8")
    for pattern in (LINK, IMAGE):
        for match in pattern.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            resolved = (path.parent / base).resolve() if base else path.resolve()
            where = f"{path.relative_to(root)}: link '{target}'"
            if not resolved.exists():
                errors.append(f"{where} -> missing file {base!r}")
                continue
            if fragment and resolved.suffix.lower() == ".md":
                if fragment not in anchors_of(resolved):
                    errors.append(f"{where} -> no heading for anchor #{fragment}")
    return errors


#: Sphinx cross-reference roles used in this codebase's docstrings.
ROLE = re.compile(r":(?:mod|class|func|meth|attr|data|exc):`~?([^`<>]+)`")


def resolves_reference(target: str) -> bool:
    """Whether a dotted ``repro.*`` reference imports/resolves.

    The longest importable module prefix is imported and the remaining
    components are resolved with ``getattr`` — the same split Sphinx
    performs for ``py:obj`` targets.

    >>> resolves_reference("repro.core.policies")
    True
    >>> resolves_reference("repro.core.policies.PowerPolicy")
    True
    >>> resolves_reference("repro.core.policies.FluxCapacitor")
    False
    >>> resolves_reference("repro.core.polices")  # typo'd module
    False
    """
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj: object = importlib.import_module(module_name)
        except ImportError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute, _MISSING)
            if obj is _MISSING:
                return False
        return True
    return False


_MISSING = object()


def check_code_references(root: Path) -> tuple[list[str], int]:
    """Validate docstring cross-references in ``src/**/*.py``.

    Returns ``(errors, reference_count)``.  Only ``repro.*`` targets are
    checked: unqualified references (``:meth:`Node.fail```) need Sphinx's
    resolution context, and stdlib/third-party targets are out of scope.
    """
    errors: list[str] = []
    checked = 0
    for path in sorted((root / "src").glob("**/*.py")):
        text = path.read_text("utf-8")
        for match in ROLE.finditer(text):
            target = match.group(1)
            if not target.startswith("repro."):
                continue
            checked += 1
            if not resolves_reference(target):
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{path.relative_to(root)}:{line}: unresolvable reference "
                    f"{target!r}"
                )
    return errors, checked


#: A fenced ```python block of a Markdown document.
PYTHON_BLOCK = re.compile(r"^```python[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
#: One ``repro`` import statement: ``from repro.x import a, b as c`` (a
#: parenthesised name list may span lines) or ``import repro.x``.
REPRO_IMPORT = re.compile(
    r"^\s*(?:from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n#]+)|import\s+(repro[\w.]*))",
    re.MULTILINE,
)


def imported_names(block: str) -> list[tuple[int, str]]:
    """``(line offset, dotted target)`` for every ``repro`` import of a code block.

    >>> imported_names("import json\\nfrom repro.runner import (\\n    grid,\\n    iter_grid as g)")
    [(1, 'repro.runner.grid'), (1, 'repro.runner.iter_grid')]
    >>> imported_names("import repro.cli\\n")
    [(0, 'repro.cli')]
    """
    found = []
    for match in REPRO_IMPORT.finditer(block):
        offset = block.count("\n", 0, match.start())
        module, names, plain = match.groups()
        if plain:
            found.append((offset, plain))
            continue
        for name in names.strip("()").split(","):
            name = name.split(" as ")[0].strip()
            if name:
                found.append((offset, f"{module}.{name}"))
    return found


def check_document_imports(path: Path, root: Path) -> tuple[list[str], int]:
    """Resolve every ``repro`` import of ``path``'s ```python blocks.

    Returns ``(errors, import_count)``.
    """
    errors: list[str] = []
    checked = 0
    text = path.read_text("utf-8")
    for block in PYTHON_BLOCK.finditer(text):
        first_line = text.count("\n", 0, block.start(1)) + 1
        for offset, target in imported_names(block.group(1)):
            checked += 1
            if not resolves_reference(target):
                errors.append(
                    f"{path.relative_to(root)}:{first_line + offset}: example imports "
                    f"{target!r}, which does not resolve"
                )
    return errors, checked


#: A fenced ```sh block of a Markdown document.
SH_BLOCK = re.compile(r"^```sh[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
#: A word that starts a shell operator (``&``, ``|``, ``;``, a redirection).
SHELL_OPERATOR = re.compile(r"^\d*[<>|&;]")


def command_lines(block: str) -> list[tuple[int, list[str]]]:
    """``(line offset, argv)`` for every ``repro`` command of a shell block.

    Backslash continuations are joined, ``#`` comments dropped, and the
    command ends at the first shell operator (redirection, pipe, ``&``).

    >>> command_lines("# comment\\nrepro sweep --jobs 4 \\\\\\n  --store s  # cached\\nls\\n")
    [(1, ['sweep', '--jobs', '4', '--store', 's'])]
    >>> command_lines("repro serve --port 8423 &\\nrepro table2 >out.txt 2>&1\\n")
    [(0, ['serve', '--port', '8423']), (1, ['table2'])]
    """
    found = []
    lines = block.split("\n")
    index = 0
    while index < len(lines):
        start, text = index, lines[index]
        while text.endswith("\\") and index + 1 < len(lines):
            index += 1
            text = text[:-1] + " " + lines[index]
        index += 1
        if text.split()[:1] != ["repro"]:
            continue
        argv = []
        for word in shlex.split(text, comments=True)[1:]:
            if SHELL_OPERATOR.match(word):
                break
            argv.append(word)
        found.append((start, argv))
    return found


def parse_error(argv: list[str]) -> str | None:
    """Why ``repro <argv>`` does not parse, or ``None`` when it does."""
    from repro.cli import build_parser

    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit as exit_:
        if exit_.code:
            message = stderr.getvalue().strip().splitlines()
            return message[-1] if message else f"exit status {exit_.code}"
    return None


def check_document_commands(path: Path, root: Path) -> tuple[list[str], int]:
    """Parse every ``repro`` command line of ``path``'s ```sh blocks.

    Returns ``(errors, command_count)``.
    """
    errors: list[str] = []
    checked = 0
    text = path.read_text("utf-8")
    for block in SH_BLOCK.finditer(text):
        first_line = text.count("\n", 0, block.start(1)) + 1
        for offset, argv in command_lines(block.group(1)):
            checked += 1
            error = parse_error(argv)
            if error is not None:
                errors.append(
                    f"{path.relative_to(root)}:{first_line + offset}: "
                    f"'repro {' '.join(argv)}' does not parse ({error})"
                )
    return errors, checked


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    documents = [root / "README.md", *sorted((root / "docs").glob("**/*.md"))]
    errors: list[str] = []
    checked = imports = commands = 0
    for document in documents:
        if not document.exists():
            errors.append(f"expected document is missing: {document}")
            continue
        checked += 1
        errors.extend(check_file(document, root))
        import_errors, count = check_document_imports(document, root)
        errors.extend(import_errors)
        imports += count
        command_errors, count = check_document_commands(document, root)
        errors.extend(command_errors)
        commands += count
    reference_errors, references = check_code_references(root)
    errors.extend(reference_errors)
    for error in errors:
        print(f"check_doc_links: {error}", file=sys.stderr)
    print(
        f"check_doc_links: {checked} document(s), {references} code reference(s), "
        f"{imports} example import(s), {commands} CLI line(s), {len(errors)} problem(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
