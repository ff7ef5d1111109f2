"""Each command loads only the modules it runs.

Every run of ``warel`` starts in a fresh process, and with bytecode writes
off each module it imports is compiled again.  The law suite (with the
term language) and the enumerator are imported by the commands that call
them: ``represent`` and ``check`` without ``--laws`` compile neither.  The
package still exports ``check_equation`` and ``eval_term``, imported from
``warel.laws`` the first time one of them is read.  Each case runs in its
own interpreter, so no import made by another test hides a load.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
A2 = str(ROOT / "structures" / "a2.alg")
LAZY = ("warel.laws", "warel.enumerate")


def loaded_after(code: str) -> set[str]:
    """The modules of ``LAZY`` that a fresh interpreter holds after
    running ``code`` with this checkout's ``src`` first on its path."""
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n{code}\n"
        f"print(__import__('json').dumps([m for m in {LAZY!r} if m in sys.modules]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", ["import warel", "import warel.cli"])
def test_importing_the_package_loads_neither(code):
    assert loaded_after(code) == set()


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["represent", A2, "--depth", "2"], set()),
        (["check", A2], set()),
        (["check", A2, "--laws"], {"warel.laws"}),
        (["enumerate", "--atoms", "1"], {"warel.enumerate"}),
    ],
    ids=["represent", "check", "check-laws", "enumerate"],
)
def test_each_command_loads_what_it_runs(argv, loads):
    run = (
        "import contextlib, io\nfrom warel.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code"
    )
    assert loaded_after(run) == loads


def test_the_term_exports_are_the_law_suites():
    # reading an export imports the law suite; an unknown name is still
    # an AttributeError, so hasattr and ``from warel import laws`` work
    run = (
        "import warel\nassert 'warel.laws' not in sys.modules\n"
        "check_equation, eval_term = warel.check_equation, warel.eval_term\n"
        "from warel import laws\n"
        "assert check_equation is laws.check_equation and eval_term is laws.eval_term\n"
        "assert not hasattr(warel, 'no_such_name')"
    )
    assert loaded_after(run) == {"warel.laws"}
