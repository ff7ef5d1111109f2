import subprocess
import sys
import time
from pathlib import Path

import pytest

from warel import cli, labelling, reduct

ROOT = Path(__file__).resolve().parents[1]
STRUCTURES = ROOT / "structures"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "warel.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def test_check_a1():
    out = run_cli("check", str(STRUCTURES / "a1.alg"))
    assert out.returncode == 0
    assert "WA: yes, SA: yes, RA: yes" in out.stdout


def test_check_a2_with_laws():
    out = run_cli("check", str(STRUCTURES / "a2.alg"), "--laws", "--elements-mode")
    assert out.returncode == 0
    assert "classify.isRA = yes" in out.stdout
    assert out.stdout.count("= fail") == 0
    assert "laws.cycle-law = pass" in out.stdout


def test_check_reports_failed_axioms():
    out = run_cli("check", str(STRUCTURES / "no_identity.alg"))
    assert "WA: no" in out.stdout
    assert "ra6" in out.stdout


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("atoms: e d\nidentity: e\nfacts:\n  e <= zz ; d\n")
    out = run_cli("check", str(bad))
    assert out.returncode == 2
    assert "line 4" in out.stderr


def test_represent_a1():
    out = run_cli("represent", str(STRUCTURES / "a1.alg"), "--passes", "1", "--depth", "2")
    assert out.returncode == 0
    assert "labelling.points = 1" in out.stdout
    assert out.stdout.count("= fail") == 0


def test_represent_a2_passes_everything():
    out = run_cli("represent", str(STRUCTURES / "a2.alg"), "--passes", "2", "--depth", "3")
    assert out.returncode == 0
    assert out.stdout.count("= fail") == 0
    assert "final.image-structure-matches = pass" in out.stdout


def test_represent_refuses_non_wa():
    out = run_cli("represent", str(STRUCTURES / "no_identity.alg"))
    assert out.returncode == 1
    assert "represent.precondition-wa = fail" in out.stdout
    assert "ra6" in out.stdout


def test_report_determinism(tmp_path):
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    for path in (r1, r2):
        out = run_cli(
            "--report", str(path), "represent", str(STRUCTURES / "a2.alg"),
            "--passes", "2", "--depth", "3",
        )
        assert out.returncode == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_report_file_matches_stdout(tmp_path):
    path = tmp_path / "r.txt"
    out = run_cli("--report", str(path), "check", str(STRUCTURES / "a2.alg"))
    assert path.read_text() == out.stdout


def test_enumerate_counts():
    out = run_cli("enumerate", "--atoms", "2")
    assert out.returncode == 0
    assert "enumerate.total = 52" in out.stdout
    assert "enumerate.classification-chain = pass" in out.stdout


def test_enumerate_rejects_negative_atom_count():
    for atoms in ("-1", "0"):
        out = run_cli("enumerate", "--atoms", atoms)
        assert out.returncode == 2
        assert "atom_count must be at least 1" in out.stderr
        assert out.stdout == ""


def test_enumerate_above_atom_guard_is_a_budget_fail_line():
    out = run_cli("enumerate", "--atoms", "5")
    assert out.returncode == 3
    assert "enumerate.budget = fail" in out.stdout
    assert "Traceback" not in out.stderr


def test_enumerate_pipeline_small():
    out = run_cli("enumerate", "--atoms", "2", "--pipeline")
    assert out.returncode == 0
    assert out.stdout.count("= fail") == 0
    assert "pipeline.wa-0000 = pass" in out.stdout


def test_budget_exceeded_is_a_fail_line(tmp_path):
    big = tmp_path / "big.alg"
    names = " ".join(f"x{i}" for i in range(1, 25))
    big.write_text(f"atoms: e {names}\nidentity: e\nfacts:\n  e <= e ; e\noptions: autoclose\n")
    out = run_cli("check", str(big), "--elements-mode")
    assert out.returncode == 3
    assert "check.budget = fail" in out.stdout
    assert "Traceback" not in out.stderr


def test_law_suite_above_table_guard_is_a_fail_line(tmp_path, capsys):
    # 11 identity atoms, each only e;e = e: WA, but 4**11 element pairs
    names = " ".join(f"e{i}" for i in range(11))
    facts = "".join(f"  e{i} <= e{i} ; e{i}\n" for i in range(11))
    big = tmp_path / "diag11.alg"
    big.write_text(f"atoms: {names}\nidentity: {names}\nfacts:\n{facts}")
    started = time.monotonic()
    code = cli.main(["check", str(big), "--laws"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 3
    assert "classify.isWA = yes" in out
    assert "check.budget = fail" in out
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "target, error",
    [
        ("warel.labelling.saturate", labelling.ConsistencyError),
        ("warel.reduct.build_pair_structure", reduct.LabelDisagreement),
    ],
)
def test_internal_error_is_a_fail_line(monkeypatch, capsys, target, error):
    def broken(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(target, broken)
    code = cli.main(["represent", str(STRUCTURES / "a2.alg"), "--passes", "1", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 4
    assert "represent.precondition-wa = pass" in out
    assert out.endswith("represent.internal = fail\nwitness: forced\n")
