"""The documentation checker reports an example that imports a deleted name."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_shipped_documents_import_only_what_exists():
    checker = _checker()
    for document in (ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))):
        errors, _ = checker.check_document_imports(document, ROOT)
        assert errors == []


def test_a_readme_that_still_imports_run_sweep_is_reported(tmp_path):
    readme = (ROOT / "README.md").read_text("utf-8")
    current = "from repro.runner import ScenarioSpec, SweepSpec, iter_grid, run_scenarios"
    assert current in readme
    (tmp_path / "README.md").write_text(
        readme.replace(current, "from repro.runner import ScenarioSpec, SweepSpec, run_sweep"),
        "utf-8",
    )
    errors, checked = _checker().check_document_imports(tmp_path / "README.md", tmp_path)
    assert checked >= 3
    assert len(errors) == 1
    assert "README.md:" in errors[0] and "'repro.runner.run_sweep'" in errors[0]


def _document(tmp_path, text: str) -> Path:
    path = tmp_path / "GUIDE.md"
    path.write_text(text, "utf-8")
    return path


def test_each_name_of_a_parenthesised_import_is_checked_at_its_statement_line(tmp_path):
    path = _document(
        tmp_path,
        "# Guide\n\n```python\nimport json\nfrom repro.runner import (\n"
        "    iter_grid as grid,\n    no_such_name,\n)\n```\n",
    )
    errors, checked = _checker().check_document_imports(path, tmp_path)
    assert checked == 2
    assert errors == [
        "GUIDE.md:5: example imports 'repro.runner.no_such_name', which does not resolve"
    ]


def test_a_plain_module_import_is_checked(tmp_path):
    path = _document(tmp_path, "```python\nimport repro.cli\nimport repro.no_such_module\n```\n")
    errors, checked = _checker().check_document_imports(path, tmp_path)
    assert checked == 2
    assert len(errors) == 1 and "'repro.no_such_module'" in errors[0]


def test_imports_outside_python_blocks_are_not_checked(tmp_path):
    path = _document(
        tmp_path,
        "Prose: from repro.runner import run_sweep\n\n"
        "```bash\nfrom repro.runner import run_sweep\n```\n\n"
        "```pycon\n>>> from repro.runner import run_sweep\n```\n",
    )
    assert _checker().check_document_imports(path, tmp_path) == ([], 0)


def test_a_trailing_comment_is_not_read_as_a_name(tmp_path):
    path = _document(
        tmp_path, "```python\nfrom repro.runner import iter_grid  # , run_sweep\n```\n"
    )
    assert _checker().check_document_imports(path, tmp_path) == ([], 1)


def test_the_shipped_documents_show_only_cli_lines_that_parse():
    checker = _checker()
    checked = 0
    for document in (ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))):
        errors, count = checker.check_document_commands(document, ROOT)
        assert errors == []
        checked += count
    assert checked >= 20


def test_a_readme_that_still_shows_store_migrate_is_reported(tmp_path):
    readme = (ROOT / "README.md").read_text("utf-8")
    current = "repro store verify /shared/results"
    assert current in readme
    (tmp_path / "README.md").write_text(
        readme.replace(current, "repro store migrate old.jsonl\n" + current), "utf-8"
    )
    errors, _ = _checker().check_document_commands(tmp_path / "README.md", tmp_path)
    assert len(errors) == 1
    assert "README.md:" in errors[0]
    assert "'repro store migrate old.jsonl' does not parse" in errors[0]
    assert "invalid choice: 'migrate'" in errors[0]


def test_continued_lines_comments_and_operators_are_handled(tmp_path):
    path = _document(
        tmp_path,
        "```sh\nrepro sweep --jobs 4 \\\n      --store results   # cached\n"
        "repro serve --port 8423 &\nrepro fig2 --quick > fig2.txt\n"
        "repro sweep --no-such-flag\n```\n\n```text\nrepro not-a-command\n```\n",
    )
    errors, checked = _checker().check_document_commands(path, tmp_path)
    assert checked == 4
    assert len(errors) == 1
    assert errors[0].startswith("GUIDE.md:6: 'repro sweep --no-such-flag' does not parse")
