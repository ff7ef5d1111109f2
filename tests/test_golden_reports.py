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
    "a2": (0, "67238b9025ad7a2b79ac9bdc11dd1847cd2fe15681af5c13493c887a6a8f0db7"),
    "pentagon": (0, "7e980062b02cf7fe289b3d6d4acf3a75675ad6afb74fee535bc5dde9cf38cd70"),
    "wa-not-sa": (1, "25deb6fad925d1212e21d4bad977eae3c10f37c2ea329498d1d7548b1d918097"),
}

GOLDEN_PASSES_0 = {
    "a2": (1, "337bdedfd9fc291c3169983819e1631a7316c63a1ce74cae954d4588eef8f517"),
    "pentagon": (1, "9e2770f4f54227f7522162e1b36f7895a3313ef4edb97a46ecb656b0fb98b460"),
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
