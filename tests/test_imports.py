"""Dead imports: every name a framelab module imports is referenced in that
module or listed in its ``__all__``.  The package ``__init__`` only
re-exports, so it is exempt.  Standard library only (``ast``)."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "framelab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = referenced_names(tree) | exported_names(tree)
    dead = sorted(set(imported_names(tree)) - used)
    assert not dead, f"{module} imports names it never uses: {', '.join(dead)}"
