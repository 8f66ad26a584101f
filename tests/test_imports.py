"""Every imported name in src/, tests/ and scripts/ is used.

A stdlib-``ast`` check in place of a linter: per file, each name an
``import`` binds must appear as a name somewhere in the file, or be
re-exported through ``__all__``. One scope per file: a name imported in one
function and used in another counts as used.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``__future__`` imports excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("relpath", FILES)
def test_no_unused_imports(relpath):
    tree = ast.parse((ROOT / relpath).read_text(encoding="utf-8"), filename=relpath)
    used = _used(tree)
    unused = sorted(f"line {line}: {name}" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{relpath} imports names it never uses: {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads as parse\nparse('1')\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "dumps"}
