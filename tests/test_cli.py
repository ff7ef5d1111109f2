import re
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from warel import cli, core
from warel.core import ConsistencyError
from warel.fileformat import format_structure
from warel.relset import Network, Universe, atom_structure_of_relativization

from test_labelling import INPUTS

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


def test_each_command_evaluates_the_law_table_once_per_structure(monkeypatch):
    # represent classifies in its precondition, initial_system and
    # build_suitable, and enumerate --pipeline in summarize and
    # build_suitable: all of them read the report cached on the structure
    calls = Counter()

    def counted(name, law):
        return lambda A: calls.update([name]) or law(A)

    laws = tuple((name, refutes, counted(name, law)) for name, refutes, law in core._LAWS)
    monkeypatch.setattr(core, "_LAWS", laws)
    assert cli.main(["represent", str(STRUCTURES / "pentagon.alg"), "--passes", "1", "--depth", "1"]) == 0
    assert calls == {name: 1 for name, _, _ in laws}
    calls.clear()
    assert cli.main(["enumerate", "--atoms", "2", "--mod-iso"]) == 0
    alone = Counter(calls)
    calls.clear()
    assert cli.main(["enumerate", "--atoms", "2", "--mod-iso", "--pipeline"]) == 0
    assert calls == alone and alone["ra4"] > 0


def write_diagonal(tmp_path, n):
    """n identity atoms, each only e;e = e: an RA with 2**n elements."""
    names = " ".join(f"e{i}" for i in range(n))
    facts = "".join(f"  e{i} <= e{i} ; e{i}\n" for i in range(n))
    path = tmp_path / f"diag{n}.alg"
    path.write_text(f"atoms: {names}\nidentity: {names}\nfacts:\n{facts}")
    return path


def test_check_a2_with_laws(tmp_path):
    # the 10-atom diagonal has the most atoms the law suite takes
    for path in (STRUCTURES / "a2.alg", write_diagonal(tmp_path, 10)):
        out = run_cli("check", str(path), "--laws")
        assert out.returncode == 0
        assert "classify.isRA = yes" in out.stdout
        assert out.stdout.count("= fail") == 0
        laws = [line for line in out.stdout.splitlines() if line.startswith("laws.")]
        assert len(laws) == 33 and all(line.endswith(" = pass") for line in laws), laws
        assert "laws.cycle-law = pass" in out.stdout


def test_check_laws_refuses_a_non_wa_input(capsys):
    # the suite runs on any structure: check --laws alone refuses non-WA input
    code = cli.main(["check", str(STRUCTURES / "no_identity.alg"), "--laws"])
    out = capsys.readouterr().out
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("laws.")] == ["laws.precondition-wa = fail"]


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


@pytest.mark.parametrize("command", ["check", "represent"])
@pytest.mark.parametrize("path", ["missing.alg", "structures"], ids=["missing", "directory"])
def test_unreadable_input_is_exit_2(command, path):
    out = run_cli(command, path)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert out.stdout == ""


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("atoms: e d\nidentity: e zz\nfacts:\n", 2),
        ("atoms: e d\nidentity: e\n# converse pairs\nconverse: d qq\nfacts:\n", 4),
    ],
    ids=["identity", "converse"],
)
def test_parse_error_names_the_symbol_line(tmp_path, text, line_no):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    out = run_cli("check", str(bad))
    assert out.returncode == 2
    assert f"error: line {line_no}: unknown atom" in out.stderr


def test_check_elements_mode_is_gone():
    out = run_cli("check", str(STRUCTURES / "a2.alg"), "--elements-mode")
    assert out.returncode == 2
    assert "unrecognized arguments: --elements-mode" in out.stderr


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


@pytest.mark.parametrize(
    "argv",
    [
        ["represent", str(STRUCTURES / "a2.alg"), "--depth", "3"],
        ["represent", str(STRUCTURES / "pentagon.alg"), "--depth", "3"],
        ["enumerate", "--atoms", "2", "--pipeline"],
    ],
    ids=["a2", "pentagon", "enumerate-2"],
)
def test_reports_do_not_depend_on_seed(argv, capsys):
    outs = []
    for seed in ("0", "12345"):
        code = cli.main(["--seed", seed, *argv])
        outs.append((code, capsys.readouterr().out.encode()))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_main_calls_in_one_process_match_separate_runs(capsys):
    # the parser is built once per process: no call may see an earlier
    # call's command or options (--laws and --passes fall back to their
    # defaults in the later calls)
    argvs = [
        ["check", str(STRUCTURES / "a2.alg"), "--laws"],
        ["represent", str(STRUCTURES / "a2.alg"), "--passes", "1", "--depth", "2"],
        ["enumerate", "--atoms", "2"],
        ["check", str(STRUCTURES / "a1.alg")],
        ["represent", str(STRUCTURES / "pentagon.alg"), "--depth", "2"],
    ]
    together = []
    for argv in argvs:
        code = cli.main(argv)
        together.append((code, capsys.readouterr().out))
    separate = [run_cli(*argv) for argv in argvs]
    assert together == [(out.returncode, out.stdout) for out in separate]


def test_report_file_matches_stdout(tmp_path):
    path = tmp_path / "r.txt"
    out = run_cli("--report", str(path), "check", str(STRUCTURES / "a2.alg"))
    assert path.read_text() == out.stdout


def test_unwritable_report_path_is_exit_2(tmp_path, capsys):
    # the report is printed before the write fails
    path = tmp_path / "no" / "such" / "x.txt"
    code = cli.main(["--report", str(path), "check", str(STRUCTURES / "a1.alg")])
    out, err = capsys.readouterr()
    assert code == 2
    assert "classify.isWA = yes" in out
    assert err.startswith("error: ") and str(path) in err
    assert not path.parent.exists()


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


def test_represent_passes_run_under_the_point_budget(monkeypatch, capsys):
    # pentagon reaches 129 points at 4 passes
    monkeypatch.setattr(core, "POINT_BUDGET", 100)
    code = cli.main(["represent", str(STRUCTURES / "pentagon.alg"), "--passes", "4", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.splitlines()[-2:] == [
        "represent.budget = fail",
        "witness: saturation exceeded the point budget 100",
    ]


@pytest.mark.parametrize(
    "budget, witness",
    [("POINT_BUDGET", "point budget 100 exceeded"), ("SPINE_BUDGET", "spine budget 100 exceeded")],
)
def test_one_budget_patch_reaches_the_trail_universe(monkeypatch, capsys, budget, witness):
    # with no saturation pass, the budget trips in the trail universe:
    # pentagon reaches 8,779 points at depth 4
    monkeypatch.setattr(core, budget, 100)
    code = cli.main(["represent", str(STRUCTURES / "pentagon.alg"), "--passes", "0", "--depth", "4"])
    out = capsys.readouterr().out
    assert code == 3
    assert "trails.points" not in out
    assert out.splitlines()[-2:] == ["represent.budget = fail", f"witness: {witness}"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["represent", str(STRUCTURES / "a2.alg"), "--passes", "1", "--depth", "2"], 0),
        (["represent", str(ROOT / "perfbench" / "inputs" / "wa00.alg")], 1),
    ],
)
def test_timings_add_one_trailing_line(capsys, argv, code):
    assert cli.main(argv) == code
    untimed = capsys.readouterr().out
    assert cli.main(["--timings", *argv]) == code
    *lines, last = capsys.readouterr().out.splitlines()
    assert lines == untimed.splitlines()
    assert re.fullmatch(r"timing\.total_seconds = \d+\.\d{3}", last), last


@pytest.mark.parametrize("kib", [28_000, 32_000, 36_000, 80_000])
def test_out_of_memory_is_a_budget_fail_line(kib):
    # pentagon at depth 5 peaks near 97 MB RSS: it completes under a
    # 110,000 KiB address-space cap and runs out of memory under 100,000
    # KiB.  Under 80,000 KiB it runs out while building the trail
    # pipeline's pair stage, after the labelling, carrier and set-algebra
    # lines are reported (Python 3.10, 3.11 and 3.12 alike).  Under the
    # tighter caps a MemoryError matched against any other except clause
    # of cli.main first can itself run out of memory and end the run
    # with no report, so main matches MemoryError before the others
    cap = kib * 1024
    out = subprocess.run(
        [sys.executable, "-m", "warel.cli", "represent", str(STRUCTURES / "pentagon.alg"), "--depth", "5"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert out.returncode == 3
    lines = out.stdout.splitlines()
    assert lines[0] == "represent.precondition-wa = pass"
    assert lines[-2:] == ["represent.budget = fail", "witness: out of memory"]
    assert "Traceback" not in out.stderr


def test_enumerate_pipeline_small():
    out = run_cli("enumerate", "--atoms", "2", "--pipeline")
    assert out.returncode == 0
    assert out.stdout.count("= fail") == 0
    assert "pipeline.wa-0000 = pass" in out.stdout


@pytest.fixture
def diag11(tmp_path):
    """One atom more than the law suite takes."""
    return write_diagonal(tmp_path, 11)


def test_budget_exceeded_is_a_fail_line(diag11):
    out = run_cli("check", str(diag11), "--laws")
    assert out.returncode == 3
    assert "check.budget = fail" in out.stdout
    assert "Traceback" not in out.stderr


def test_law_suite_above_table_guard_is_a_fail_line(diag11, capsys):
    started = time.monotonic()
    code = cli.main(["check", str(diag11), "--laws"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 3
    assert "classify.isWA = yes" in out
    assert "check.budget = fail" in out
    assert elapsed < 1.0


def test_represent_decides_the_reduct_above_the_table_guard(tmp_path, capsys):
    # the relativization to the path 0-1-2-3 plus the loop (4, 4) has 11
    # atoms, one more than a full element range allows; the reduct lines
    # are decided on atoms, so no budget line appears
    path = {(p, p) for p in range(5)} | {(i, i + 1) for i in range(3)} | {(i + 1, i) for i in range(3)}
    A, _ = atom_structure_of_relativization(Universe(5), frozenset(path))
    assert A.atom_count == 11
    struct = tmp_path / "path5.alg"
    struct.write_text(format_structure(A))
    cli.main(["represent", str(struct), "--depth", "2"])
    out = capsys.readouterr().out
    assert "represent.budget" not in out
    lines = [line for line in out.splitlines() if line.startswith("reduct.")]
    assert len(lines) == 8
    assert all(line.endswith("= pass") for line in lines), lines


@pytest.mark.parametrize(
    "target, error",
    [
        ("warel.labelling.saturate", ConsistencyError),
        ("warel.cli.build_universe", ConsistencyError),
        ("warel.reduct.build_pair_structure", ConsistencyError),
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
    # the pair stage decides the premise that the setalgebra lines rest
    # on, so none of them prints before it
    assert "setalgebra." not in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--depth", "0"], "bound must be at least 1"),
        (["--depth", "-2"], "bound must be at least 1"),
        (["--passes", "-1"], "passes must be nonnegative"),
    ],
)
def test_represent_rejects_bad_bounds_before_any_stage(monkeypatch, capsys, flags, message):
    def no_stage(*args, **kwargs):
        raise AssertionError("a pipeline stage ran")

    monkeypatch.setattr("warel.labelling.initial_system", no_stage)
    code = cli.main(["represent", str(STRUCTURES / "a2.alg"), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_represent_never_walks_a_networks_triangles(monkeypatch, capsys):
    # both pipelines seed their networks' facts, and every census input
    # passes composition-upper, so no run names a triangle witness: with
    # the walk refused, each run still ends in its report
    def refused(self):
        raise AssertionError("a network walked its triangles")

    monkeypatch.setattr(Network, "triangles", refused)
    assert len(INPUTS) == 17
    codes = [cli.main(["represent", str(path), "--passes", "2", "--depth", "3"]) for path in INPUTS]
    assert "composition-upper-exact = fail" not in capsys.readouterr().out
    assert codes.count(0) == 13 and codes.count(1) == 4, codes
