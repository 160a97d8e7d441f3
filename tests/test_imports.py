"""Every name a `src/` module or a `scripts/` script imports is used in that file.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard `ast` module. A name counts as used when it
is read anywhere in the module, annotations included. `from __future__`
imports are exempt, and so are the names a package `__init__` lists in
`__all__`, which it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def module_id(path: Path) -> str:
    """A module's path under `src/`, or a script's under the repository root."""
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str, is_package: bool) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = exported_names(tree) if is_package else set()
    return [
        f"line {line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in read and name not in exempt
    ]


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py") == []


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source, False) == ["line 2: os", "line 3: b"]
    package = 'from .m import f, g\n__all__ = ["f"]\n'
    assert unused_imports(package, True) == ["line 1: g"]
    assert unused_imports(package, False) == ["line 1: f", "line 1: g"]
