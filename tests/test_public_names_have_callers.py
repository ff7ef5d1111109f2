"""Every public top-level function, class and constant, and every public
method and property of such a class, has a caller outside tests.

A public name (no leading underscore) bound at the top of a module under
``src/warel`` by ``def``, ``class`` or assignment, or by ``def`` in the
body of such a class, is program code.  If no module under ``src/warel`` or
``perfbench`` reads it, and the package does not export it in
``__all__``, only the tests call it: it belongs in the tests that use
it.  A top-level name is read by name or as an attribute; a method or
property only as an attribute, so a local variable of the same name
does not count as a caller.
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


def _assigned(nodes) -> list[tuple[str, int]]:
    """The public names that assignments among ``nodes`` bind, with their
    lines: plain and annotated targets, and the names of a tuple target."""
    out = []
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    out.append((name.id, node.lineno))
    return out


def _public_defs(tree: ast.Module) -> list[tuple[str, str, int, bool]]:
    """Each public function, class or constant the module binds at its
    top level, and each public method or property of such a class: the
    name a caller reads, the name shown (``Class.method`` for a method),
    the line and whether it is a member of a class."""
    out = [(name, name, line, False) for name, line in _assigned(tree.body)]
    for node in _public(tree.body):
        out.append((node.name, node.name, node.lineno, False))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, f"{node.name}.{m.name}", m.lineno, True) for m in _public(node.body)]
    return out


def _read(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module reads bare, and those it reads as the
    attribute of something."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


_READS = [_read(ast.parse(p.read_text(encoding="utf-8"))) for p in READERS]
ATTRS = set().union(*(attrs for _, attrs in _READS))
READ = ATTRS.union(*(names for names, _ in _READS))
EXPORTED = set(warel.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_names_have_callers(path):
    defs = _public_defs(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted(
        (line, shown)
        for name, shown, line, member in defs
        if name not in (ATTRS if member else READ | EXPORTED)
    )
    assert unread == [], f"{path.name}: public names only tests read (line, name) {unread}"
