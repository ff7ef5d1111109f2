"""The pytest configuration reports a falsified hypothesis property.

``filterwarnings = ["error"]`` in pyproject.toml also applies to warnings
raised by plugins.  The hypothesis plugin raises a ``DeprecationWarning``
while it builds the report of a falsified property; as an error it made
pytest stop the whole session with ``INTERNALERROR``.  Here pytest runs,
under the repository's configuration, on a property that always fails.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_falsified_property_is_reported(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
            "-p", "no:cacheprovider", "test_always_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
