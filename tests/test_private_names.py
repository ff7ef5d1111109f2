"""Every module-level private name is read by its own module.

A private name (``_f``, ``_X``, not a dunder) bound at the top of a module
under ``src/warel`` by ``def``, ``class`` or assignment says that no other
module uses it.  So if its own module never reads it, nothing does, and
it is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "warel").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> dict[str, int]:
    """Each private name the module binds at its top level, with its line."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in names if _private(name))
    return out


def _read(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unread = sorted((line, name) for name, line in _defined(tree).items() if name not in read)
    assert unread == [], f"{path.name}: private names never read (line, name) {unread}"
