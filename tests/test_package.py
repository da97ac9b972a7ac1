"""Static checks of the package source: exports resolve, imports are used."""

import ast
from pathlib import Path

import pytest

import cellbeam
import cellbeam.agents

SOURCE = Path(cellbeam.__file__).parent
MODULES = sorted(SOURCE.rglob("*.py"))


@pytest.mark.parametrize("package", [cellbeam, cellbeam.agents], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"{package.__name__}.__all__ names {missing}"


def _imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a package re-exports what it lists in __all__
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SOURCE)))
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    used = _used_names(tree)
    assert [name for name, _ in _imported_names(tree) if name not in used] == ["os", "pi"]
