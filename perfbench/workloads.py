"""The benchmark's four workloads: their inputs, operations and oracles.

Each operation is one ``warel`` command line.  Inputs are generated from
the seed: every structure file is written with its atoms (and fact lines)
in a seed-chosen order, so no change can key on one exact file, and the
seed is passed on as ``--seed`` to drive the sampled subsets in
``cylindric``.  Every operation's report is checked by an oracle that
returns the reasons the report is wrong, an empty list when it is right.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

INPUTS = Path(__file__).resolve().parent / "inputs"
PENTAGON = Path.cwd() / "structures" / "pentagon.alg"

# The four WA-but-not-SA census structures: at this commit their
# trail/reduct representation fails this one check at every depth from 2
# to 5, while the labelling pipeline passes on them.  They stay in the
# workload and count as failed operations; the oracle only refuses a
# report that fails in some other way.
KNOWN_FAILURES = {
    name: frozenset({"final.composition-lower-nonfrontier"})
    for name in ("wa00", "wa01", "wa07", "wa10")
}

VERDICT = re.compile(r"^(\S+) = (pass|fail)$")


@dataclass
class Operation:
    name: str
    argv: list[str]
    oracle: Callable[[str], list[str]]
    known_failure: frozenset = field(default_factory=frozenset)


def verdicts(report: str) -> list[str]:
    """The ``stage.check = pass|fail`` lines of a report, in order."""
    return [line for line in report.splitlines() if VERDICT.match(line)]


def failing_checks(report: str) -> set[str]:
    return {m.group(1) for m in map(VERDICT.match, report.splitlines()) if m and m.group(2) == "fail"}


def _info(report: str) -> dict[str, str]:
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _expect_values(expected: dict[str, str]) -> Callable[[str], list[str]]:
    def check(report: str) -> list[str]:
        info = _info(report)
        return [
            f"{key} = {info.get(key)!r}, expected {value!r}"
            for key, value in expected.items()
            if info.get(key) != value
        ]

    return check


def _all_pass(report: str) -> list[str]:
    failed = sorted(failing_checks(report))
    if not verdicts(report):
        return ["no verdict lines"]
    return [f"{name} = fail" for name in failed]


def _all_of(*oracles: Callable[[str], list[str]]) -> Callable[[str], list[str]]:
    return lambda report: [reason for oracle in oracles for reason in oracle(report)]


def _count_prefix(prefix: str, expected: int) -> Callable[[str], list[str]]:
    def check(report: str) -> list[str]:
        got = sum(1 for line in verdicts(report) if line.startswith(prefix) and line.endswith("= pass"))
        return [] if got == expected else [f"{got} passing {prefix}* lines, expected {expected}"]

    return check


def permuted_text(text: str, rng: random.Random) -> str:
    """The same structure with its atoms declared in a random order and
    its indented (fact) lines shuffled; atom indices follow declaration
    order."""
    out: list[str] = []
    block: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0].isspace():
            block.append(line)
            continue
        rng.shuffle(block)
        out += block
        block = []
        if line.startswith("atoms:"):
            names = line[len("atoms:") :].split()
            rng.shuffle(names)
            line = "atoms: " + " ".join(names)
        out.append(line)
    rng.shuffle(block)
    return "\n".join(out + block) + "\n"


def _write(workdir: Path, name: str, text: str) -> str:
    """Write one generated input and parse it back, so a malformed input
    fails at set-up rather than inside a timed operation."""
    from warel.fileformat import parse_structure_file

    path = workdir / f"{name}.alg"
    path.write_text(text, encoding="utf-8")
    parse_structure_file(str(path))
    return str(path)


def _represent_census(seed: int, rng: random.Random, workdir: Path) -> list[Operation]:
    ops = []
    for src in sorted(INPUTS.glob("wa*.alg")):
        name = src.stem
        path = _write(workdir, name, permuted_text(src.read_text(encoding="utf-8"), rng))
        ops.append(
            Operation(
                name,
                ["--seed", str(seed), "represent", path, "--passes", "2", "--depth", "3"],
                _all_pass,
                KNOWN_FAILURES.get(name, frozenset()),
            )
        )
    return ops


def _deep_labelling(seed: int, rng: random.Random, workdir: Path) -> list[Operation]:
    text = PENTAGON.read_text(encoding="utf-8")
    sizes = {"5": ("513", "2557"), "6": ("2049", "10237")}
    ops = []
    for passes, (points, labels) in sizes.items():
        path = _write(workdir, f"pentagon-p{passes}", permuted_text(text, rng))
        oracle = _all_of(
            _all_pass,
            _expect_values({"labelling.points": points, "labelling.labels": labels}),
        )
        ops.append(
            Operation(
                f"pentagon-p{passes}",
                ["--seed", str(seed), "represent", path, "--passes", passes, "--depth", "2"],
                oracle,
            )
        )
    return ops


def _law_suite(seed: int, rng: random.Random, workdir: Path) -> list[Operation]:
    from warel.fileformat import format_structure
    from warel.relset import Universe, atom_structure_of_relativization

    units = {
        # the full square on 2 points: 4 atoms
        "square2": (Universe(2), frozenset((u, v) for u in range(2) for v in range(2))),
        # the diagonal of 3 points plus one symmetric edge: 5 atoms
        "edge3": (Universe(3), frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})),
    }
    # A relativization of the full algebra to a symmetric unit that is
    # reflexive on its field is WA (Maddux 1982); all 33 laws must hold.
    oracle = _all_of(
        _all_pass,
        _expect_values({"classify.isWA": "yes"}),
        _count_prefix("laws.", 33),
    )
    ops = []
    for name, (universe, unit) in units.items():
        A, _ = atom_structure_of_relativization(universe, unit)
        path = _write(workdir, name, permuted_text(format_structure(A), rng))
        ops.append(Operation(name, ["--seed", str(seed), "check", path, "--laws"], oracle))
    return ops


def _census(seed: int, rng: random.Random, workdir: Path) -> list[Operation]:
    mod_iso = _all_of(
        _all_pass,
        _expect_values(
            {
                "enumerate.total": "1696",
                "enumerate.wa": "17",
                "enumerate.sa": "13",
                "enumerate.ra": "13",
                "enumerate.wa_not_sa": "4",
                "enumerate.sa_not_ra": "0",
            }
        ),
        _count_prefix("pipeline.wa-", 17),
    )
    # Counts of the raw (labelled, not reduced) run, recorded at the
    # commit that added this benchmark.
    raw = _all_of(
        _all_pass,
        _expect_values(
            {
                "enumerate.total": "4608",
                "enumerate.wa": "25",
                "enumerate.sa": "20",
                "enumerate.ra": "20",
                "enumerate.wa_not_sa": "5",
                "enumerate.sa_not_ra": "0",
            }
        ),
    )
    return [
        Operation(
            "mod-iso-pipeline",
            ["--seed", str(seed), "enumerate", "--atoms", "3", "--mod-iso", "--pipeline"],
            mod_iso,
        ),
        Operation("raw", ["--seed", str(seed), "enumerate", "--atoms", "3"], raw),
    ]


BUILDERS = {
    "represent-census": _represent_census,
    "deep-labelling": _deep_labelling,
    "law-suite": _law_suite,
    "census": _census,
}


def build(workload: str, seed: int, workdir: Path) -> list[Operation]:
    """Write the workload's inputs for this seed into ``workdir`` and
    return its operations in the order one pass runs them."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, random.Random(seed), workdir)


def judge(op: Operation, exit_code, report: str, error: str) -> tuple[bool, list[str]]:
    """(failed, unexpected) for one run of an operation.

    ``failed`` is the operation's outcome against its oracle: it raised,
    exited non-zero or disagreed.  ``unexpected`` lists what makes the
    output wrong beyond a known failure; it is empty for a known failure
    that fails exactly as recorded, and for any passing operation.
    """
    if error:
        return True, [f"raised {error}"]
    reasons = op.oracle(report)
    failed = exit_code != 0 or bool(reasons)
    if not failed:
        return False, []
    if op.known_failure and failing_checks(report) == op.known_failure and exit_code == 1:
        return True, []
    return True, reasons + ([f"exit code {exit_code}"] if exit_code != 0 else [])
