"""Every imported name is used.

Walks the ``ast`` of each module under ``src/warel`` and ``tests``.  A
name counts as used when it is read anywhere in the module, named in a
string annotation or listed in ``__all__``; ``from __future__`` imports
are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "warel").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each bound name of an import statement, with its line."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"
