"""Dead code by AST scan.  Dead imports: every name a framelab module imports
is referenced in that module or listed in its ``__all__``.  Test-only
definitions: every definition in src/ is reached from src/, unless it is
allowlisted paper API.  The package ``__init__`` only re-exports, so it is
exempt from both.  Standard library only (``ast``)."""

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


def assignment(tree, name):
    """The module-level assignment to ``name``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node
    return None


def exported_names(tree):
    node = assignment(tree, "__all__")
    return set(ast.literal_eval(node.value)) if node else set()


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = referenced_names(tree) | exported_names(tree)
    dead = sorted(set(imported_names(tree)) - used)
    assert not dead, f"{module} imports names it never uses: {', '.join(dead)}"


# Definitions that no code in src/ reaches, kept as the library's documented
# paper API, each with the reason it stays.
PAPER_API = {
    "analyze": "the analysis operator f -> (<f, psi_k>)_k",
    "gram": "the Gram operator (<psi_k, psi_j>)_jk",
    "frame_operator_apply": "the frame operator S f = sum_k <f, psi_k> psi_k",
    "indicator": "chi_E, the multiplier that makes a frame sequence of a frame",
    "translate_system": "the translate system {e_lambda hhat} a multiplier makes of exponentials",
    "outer_frame_check": "the projection step of the translate construction",
    "convolution_closure_check": "closure of translate frames under convolution",
    "inner": "the grid's discrete inner product <f, h>, in README's library tour",
}
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"


def defined_names(tree):
    """Top-level functions and classes, and methods other than dunders, by
    the name code reaches them under."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub.name


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(tree):
    """The innermost function (or lambda) around each node, None at module
    level, and for each function the names it binds itself: its parameters,
    the names it stores and the functions and classes it defines."""
    scope = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            scope[child] = func
            visit(child, child if isinstance(child, FUNCTIONS) else func)

    visit(tree, None)
    bound = {}
    for node, func in scope.items():
        if isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if func is not None:
            bound.setdefault(func, set()).add(name)
    return scope, bound


def reached_names(tree):
    """Every name the module's code reaches a definition by: a name, an
    attribute or an import (``__all__`` lists strings, so it reaches none).
    A bare name counts only where the function around it does not bind
    that name itself: a local ``inner`` reaches no top-level ``inner``."""
    scope, bound = local_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in bound.get(scope.get(node), ()):
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def tracer_targets():
    """The function names of ``perfbench/tracer.py``'s ``TARGETS``: the
    benchmark wraps each by name, so each must stay."""
    node = assignment(ast.parse(TRACER.read_text(encoding="utf-8")), "TARGETS")
    return {entry.elts[1].value for entry in node.value.elts}


def test_no_src_definition_is_test_only():
    """A definition that nothing in src/ (the package ``__init__`` aside)
    reaches is reached only from tests, unless it is paper API; test-only
    code belongs in tests/.  Names are matched, not types, so a method
    shadowed by a same-named attribute elsewhere passes unseen; a function's
    own local of the same name reaches no top-level definition."""
    trees = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8")) for m in MODULES}
    reached = set().union(*(reached_names(tree) for tree in trees.values())) | tracer_targets()
    unreached = {f"{module}:{name}" for module, tree in trees.items()
                 for name in defined_names(tree) if name not in reached}
    test_only = sorted(n for n in unreached if n.split(":")[1] not in PAPER_API)
    assert not test_only, f"definitions only tests reach: {', '.join(test_only)}"
    stale = sorted(set(PAPER_API) - {n.split(":")[1] for n in unreached})
    assert not stale, f"allowlisted but reached from src/: {', '.join(stale)}"
