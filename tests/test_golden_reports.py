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
    "a2": (0, "b954a0885280af4191e76dd60a4d97d85df848f52f7f928b2473bc0d7d07ecd6"),
    "pentagon": (0, "645d7e3f6f90cb1eda5a9bdb1688f57db36f58da89691f0f251397425946f999"),
    "wa-not-sa": (1, "d5bb5688a4e517abb9c354fdaab1409dcdbe522e060acfcdacd347013df4afa5"),
}

GOLDEN_PASSES_0 = {
    "a2": (1, "ae0cece74f9eec4ab1d15f9422a82d15a610cce8786cedebfc15b2d5a304222e"),
    "pentagon": (1, "0cc6eed65250d8dc5f49ac628f0f340e9c13330bcdeebaf250edb578d0ba74c7"),
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
