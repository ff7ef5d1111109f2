"""Byte-for-byte pins of full ``represent`` reports.

Each digest in ``GOLDEN`` is the sha256 of everything ``warel represent
FILE --passes 2 --depth 3`` prints, and each in ``GOLDEN_PASSES_0`` of
``--passes 0 --depth 3``, where the unsaturated labelling fails
``labelling.injective``.  A change that alters a report line on purpose
must update the digest here and say why.
"""

import hashlib
from pathlib import Path

import pytest

from warel.cli import main

STRUCTURES = Path(__file__).resolve().parents[1] / "structures"

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

GOLDEN = {
    "a2": (0, "0582e7dfff13082f6b86a34ae8ebc2e80e2123feddad8d4e1d81b09e38c2eed3"),
    "pentagon": (0, "22e0f729cf9849d337a71404eb1d44a76d54d59fb12f05c501bb3044d87532b4"),
    "wa-not-sa": (1, "37e25ddf4652757d9692e9ffc443d2b79146d70ba61c5e0cd0c3f7bf5a83f3ca"),
}

GOLDEN_PASSES_0 = {
    "a2": (1, "71bd6da977e9ad4241d608c978bddfed858183b2e3447a063c16554ca33fe137"),
    "pentagon": (1, "d8d3ac75a34caa445535dd33a64f381ee57960fe9ec597fd3dc6e7f9264758c3"),
}


def _represent(path, capsys, passes="2"):
    code = main(["represent", str(path), "--passes", passes, "--depth", "3"])
    return code, capsys.readouterr().out


@pytest.fixture
def wa_not_sa_file(tmp_path):
    path = tmp_path / "wa_not_sa.alg"
    path.write_text(WA_NOT_SA, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["a2", "pentagon"])
def test_sample_reports_are_pinned(name, capsys):
    code, out = _represent(STRUCTURES / f"{name}.alg", capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]


@pytest.mark.parametrize("name", ["a2", "pentagon"])
def test_unsaturated_reports_are_pinned(name, capsys):
    code, out = _represent(STRUCTURES / f"{name}.alg", capsys, passes="0")
    assert "labelling.injective = fail\nlabelling.identity-to-diagonal" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_PASSES_0[name]


def test_wa_not_sa_report_is_pinned(wa_not_sa_file, capsys):
    code, out = _represent(wa_not_sa_file, capsys)
    failing = [line for line in out.splitlines() if line.endswith("= fail")]
    assert failing == ["final.composition-lower-nonfrontier = fail"]
    assert "witness: checked=39 excluded=48 missing=(13, 0, 13, 2, 2)" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN["wa-not-sa"]
