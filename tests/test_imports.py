"""Every imported name in src/, tests/ and scripts/ is used, and every
function, class and method of the package is named by code outside tests.

Stdlib-``ast`` checks in place of a linter. Per file, each name an
``import`` binds must appear as a name somewhere in the file, or be
re-exported through ``__all__``. One scope per file: a name imported in one
function and used in another counts as used. Each function, class and
method defined in src/remixse/ (dunder methods excepted) must appear as a
name or an attribute in src/, scripts/ or perfbench/, test files not counted.
Only ``fileio`` creates directories: no other package module names ``mkdir``,
``makedirs``, ``mkdtemp`` or ``TemporaryDirectory``.
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
CALLERS = sorted(
    path
    for folder in ("src", "scripts", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if not path.name.startswith("test_")
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


def _defined(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each function, class and method, dunder methods excepted."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _named(tree: ast.Module) -> set[str]:
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("relpath", FILES)
def test_no_unused_imports(relpath):
    tree = _parse(ROOT / relpath)
    used = _used(tree)
    unused = sorted(f"line {line}: {name}" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{relpath} imports names it never uses: {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads as parse\nparse('1')\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "dumps"}


def test_every_definition_is_named_outside_tests():
    named = set().union(*(_named(_parse(path)) for path in CALLERS))
    unused = sorted(
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for path in sorted((ROOT / "src" / "remixse").rglob("*.py"))
        for name, line in _defined(_parse(path)).items()
        if name not in named
    )
    assert not unused, f"defined but named nowhere in src/, scripts/ or perfbench/: {unused}"


def test_finds_a_definition_nothing_names():
    tree = ast.parse(
        "class A:\n    def __init__(self): pass\n    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def run(): A().used()\n"
        "run()\n"
    )
    assert set(_defined(tree)) - _named(tree) == {"unused"}


def _makes_directories(tree: ast.Module) -> set[str]:
    return _named(tree) & {"mkdir", "makedirs", "mkdtemp", "TemporaryDirectory"}


def test_only_fileio_creates_directories():
    offenders = sorted(
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "src" / "remixse").rglob("*.py")
        if path.name != "fileio.py" and _makes_directories(_parse(path))
    )
    assert not offenders, f"create directories through fileio: {offenders}"


def test_finds_a_directory_being_made():
    tree = ast.parse(
        "Path('a').mkdir(parents=True)\nmakedirs('b')\n"
        "tempfile.mkdtemp()\nwith TemporaryDirectory() as d: pass\n"
    )
    assert _makes_directories(tree) == {"mkdir", "makedirs", "mkdtemp", "TemporaryDirectory"}
