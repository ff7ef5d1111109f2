"""The README cites only names that exist.

Every backquoted ``module.name`` in README.md must be an attribute of
that ``warel`` module, such as a function, or the name of a line that a
report prints: the reports of ``represent``, ``check --laws`` and
``enumerate --pipeline`` on small inputs, and ``represent``'s budget
and internal-error lines.
"""

import importlib
import re
from pathlib import Path

from warel import cli, core, reduct

ROOT = Path(__file__).resolve().parent.parent
CITED = re.compile(r"`([a-z]+)\.([A-Za-z0-9_-]+)(?: = [a-z]+)?`")
MODULES = {path.stem for path in (ROOT / "src" / "warel").glob("*.py")}


def _line_names(capsys, argv):
    cli.main(argv)
    return {line.split(" = ")[0] for line in capsys.readouterr().out.splitlines() if " = " in line}


def _broken(*args):
    raise core.ConsistencyError("forced")


def test_every_cited_function_and_line_exists(monkeypatch, capsys):
    a2 = str(ROOT / "structures" / "a2.alg")
    names = _line_names(capsys, ["represent", a2, "--depth", "2"])
    names |= _line_names(capsys, ["check", a2, "--laws"])
    names |= _line_names(capsys, ["enumerate", "--atoms", "2", "--pipeline"])
    with monkeypatch.context() as patch:
        patch.setattr(core, "SPINE_BUDGET", 1)
        names |= _line_names(capsys, ["represent", a2, "--depth", "2"])
    monkeypatch.setattr(reduct, "build_pair_structure", _broken)
    names |= _line_names(capsys, ["represent", a2, "--depth", "2"])
    assert {"represent.budget", "represent.internal"} <= names

    cited = CITED.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(cited) > 30
    missing = [
        f"{module}.{name}"
        for module, name in cited
        if f"{module}.{name}" not in names
        and not (module in MODULES and hasattr(importlib.import_module(f"warel.{module}"), name))
    ]
    assert missing == []
