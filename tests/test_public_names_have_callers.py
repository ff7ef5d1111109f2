"""Every public top-level function and class, and every public method
and property of such a class, has a caller outside tests.

A public name (no leading underscore) bound at the top of a module under
``src/warel`` by ``def`` or ``class``, or by ``def`` in the body of such
a class, is program code.  If no module under ``src/warel`` or
``perfbench`` reads it, by name or as an attribute, and the package
does not export it in ``__all__``, only the tests call it: it belongs in
the tests that use it.
"""

import ast
from pathlib import Path

import pytest

import warel

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "warel").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(nodes) -> list:
    return [node for node in nodes if isinstance(node, DEFS) and not node.name.startswith("_")]


def _public_defs(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Each public function or class the module defines at its top level,
    and each public method or property of such a class: the name a
    caller reads, the name shown (``Class.method`` for a method) and the
    line."""
    out = []
    for node in _public(tree.body):
        out.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, f"{node.name}.{m.name}", m.lineno) for m in _public(node.body)]
    return out


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as the attribute of something."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


READ = set().union(*(_read(ast.parse(p.read_text(encoding="utf-8"))) for p in READERS))
EXPORTED = set(warel.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_names_have_callers(path):
    defs = _public_defs(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted((line, shown) for name, shown, line in defs if name not in READ | EXPORTED)
    assert unread == [], f"{path.name}: public names only tests read (line, name) {unread}"
