"""Full ``represent`` and ``check --laws`` reports, pinned as committed text.

Each file ``tests/golden/NAME.txt`` is everything one ``warel`` run
prints, and ``EXIT_CODES[NAME]`` is its exit code.  The five
``represent --depth 3`` runs are checked here: ``--passes 2``, and
``--passes 0``, where the unsaturated labelling fails
``labelling.injective``; so is ``check --laws`` on the 9-atom full
square.  The other four are CI's represent probes; CI runs all five
probes under address-space caps and ``diff``s their output against the
same files.  A change that alters a report line
on purpose updates the file, and shows as a diff of report lines.
"""

import difflib
from pathlib import Path

import pytest

from warel.cli import main

ROOT = Path(__file__).resolve().parents[1]
STRUCTURES = ROOT / "structures"
GOLDEN = ROOT / "tests" / "golden"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

EXIT_CODES = {
    "a2-depth3": 0,
    "pentagon-depth3": 0,
    "wa-not-sa-depth3": 1,
    "a2-passes0-depth3": 1,
    "pentagon-passes0-depth3": 1,
    # CI's probes: bash -e fails the step on any other exit code
    "pentagon-depth5": 0,
    "wa09-depth4": 0,
    "wa09-depth5": 0,
    "pentagon-passes8": 0,
    "square3-laws": 0,
}
CI_PROBES = ("pentagon-depth5", "wa09-depth4", "wa09-depth5", "pentagon-passes8", "square3-laws")

# Weakly associative but not semi-associative: the trail representation
# misses a factor pair of the identity on a pair of equal points.
WA_NOT_SA = """\
atoms: e r s
identity: e
facts:
  e <= e ; e
  r <= e ; r
  s <= e ; s
  r <= r ; e
  e <= r ; r
  s <= s ; e
  e <= s ; s
"""


def _represent(path, capsys, passes="2"):
    code = main(["represent", str(path), "--passes", passes, "--depth", "3"])
    return code, capsys.readouterr().out


def assert_golden(name, code, out):
    """The run printed the committed report ``name`` and exited with its
    code; a differing report fails with a unified diff of its lines."""
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    diff = difflib.unified_diff(want.splitlines(True), out.splitlines(True), f"golden/{name}.txt", "this run")
    assert out == want, "".join(diff)
    assert code == EXIT_CODES[name]


@pytest.fixture
def wa_not_sa_file(tmp_path):
    path = tmp_path / "wa_not_sa.alg"
    path.write_text(WA_NOT_SA, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["a2", "pentagon"])
def test_sample_reports_are_pinned(name, capsys):
    assert_golden(f"{name}-depth3", *_represent(STRUCTURES / f"{name}.alg", capsys))


@pytest.mark.parametrize("name", ["a2", "pentagon"])
def test_unsaturated_reports_are_pinned(name, capsys):
    code, out = _represent(STRUCTURES / f"{name}.alg", capsys, passes="0")
    assert "labelling.injective = fail\nlabelling.identity-to-diagonal" in out
    assert_golden(f"{name}-passes0-depth3", code, out)


def test_wa_not_sa_report_is_pinned(wa_not_sa_file, capsys):
    code, out = _represent(wa_not_sa_file, capsys)
    failing = [line for line in out.splitlines() if line.endswith("= fail")]
    assert failing == ["final.composition-lower-nonfrontier = fail"]
    assert "witness: checked=39 excluded=48 missing=(13, 0, 13, 2, 2)" in out
    assert_golden("wa-not-sa-depth3", code, out)


def test_law_suite_report_on_the_full_square_is_pinned(capsys):
    code = main(["check", str(STRUCTURES / "square3.alg"), "--laws"])
    out = capsys.readouterr().out
    assert "classify.isRA = yes" in out and out.count(" = pass") == 34
    assert_golden("square3-laws", code, out)


def test_every_golden_report_is_checked():
    # each committed report has its exit code here, and each CI probe
    # diffs its output against its own
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(EXIT_CODES)
    workflow = WORKFLOW.read_text(encoding="utf-8")
    for name in CI_PROBES:
        assert f"diff tests/golden/{name}.txt {name}.txt" in workflow, name
