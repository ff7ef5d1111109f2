"""Command line driver.

Three commands: ``check`` classifies a structure file as WA, SA and RA
(optionally running the elementary-law suite), ``represent`` runs both
representation pipelines with staged verification, and ``enumerate``
generates all structures with a given atom count and classifies them.
Loading this module loads ``core``, ``fileformat`` and the pipeline
modules; ``check --laws`` imports :mod:`warel.laws` and ``enumerate``
:mod:`warel.enumerate` when they run, so ``represent`` compiles neither.
Every verdict has one decision path: ``check`` decides the laws over
atoms (see :func:`warel.core.classify`), and ``represent`` verifies
every labelling system through its per-atom certificates (see
:func:`warel.labelling.verify_representation`), whatever its size.
Reports are deterministic.  Exit codes: 0 when every requested check
passed, 1 when some check failed, 2 for unreadable input or an
unwritable ``--report`` path (the report is still printed), 3 when a
budget or the memory ran out (a ``<command>.budget = fail`` line after
the lines reported so far) and 4 when an internal consistency check
broke (a ``<command>.internal = fail`` line).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from itertools import islice
from typing import Optional

from . import labelling, reduct
from .core import AtomStructure, CheckResult, ConsistencyError, GuardExceeded, classify
from .cylindric import (
    check_complex_vs_relativized,
    check_functions,
    check_mgr2,
    check_na3,
    check_orbit_partition,
)
from .fileformat import ParseError, Report, parse_structure_file
from .relset import Network, image_atom_structure
from .suitable import SuitableStructure, build_suitable, check_suitable
from .trails import build_universe


def _classify_into(report: Report, A: AtomStructure) -> bool:
    rep = classify(A)
    yn = lambda b: "yes" if b else "no"
    report.info("classify.summary", f"WA: {yn(rep.is_wa)}, SA: {yn(rep.is_sa)}, RA: {yn(rep.is_ra)}")
    report.info("classify.isWA", yn(rep.is_wa))
    report.info("classify.isSA", yn(rep.is_sa))
    report.info("classify.isRA", yn(rep.is_ra))
    for name, witness in rep.failures:
        report.info("classify.failure", f"{name} witness {witness}")
    return rep.is_wa


def cmd_check(args: argparse.Namespace, report: Report) -> None:
    A = parse_structure_file(args.file)
    report.add("check", "validate", True)
    is_wa = _classify_into(report, A)
    if args.laws:
        if not is_wa:
            report.add("laws", "precondition-wa", False, "law suite needs a WA input")
            return
        from .laws import elementary_law_suite

        report.extend_results("laws", elementary_law_suite(A))


def _report_images(report: Report, stage: str, net: Network) -> None:
    # each atom's 16 smallest pairs: the rows, each sorted, are walked in
    # increasing order only until they are found
    out = net.rows[0]
    points = sorted(out)
    for a, size in enumerate(net.sizes):
        pairs = ((u, v) for u in points for v, b in sorted(out[u].items()) if b == a)
        shown = " ".join(f"({u},{v})" for u, v in islice(pairs, min(16, size)))
        more = "" if size <= 16 else f" ... ({size} total)"
        report.info(f"{stage}.image.{net.algebra.atom_name(a)}", shown + more)


def _carrier_checks(A: AtomStructure, S: SuitableStructure) -> list[tuple[str, tuple[CheckResult, ...]]]:
    """The checks on the suitable structure S built from A, as
    ``(stage, results)`` pairs in report order: ``represent`` reports
    them and ``enumerate --pipeline`` requires them all to pass."""
    return [
        ("suitable", check_suitable(S)),
        ("cylindric", check_na3(S)),
        ("cylindric", check_mgr2(S)),
        ("cylindric", check_functions(S)),
        ("reduct", reduct.check_reduct_closure(S)),
        ("reduct", reduct.check_reduct_isomorphism(A, S)),
    ]


def _represent_pipeline(
    report: Report, A: AtomStructure, passes: int, depth: int
) -> None:
    ls = labelling.initial_system(A)
    labelling.saturate(ls, passes)
    report.info("labelling.points", ls.point_count())
    report.info("labelling.labels", len(ls.label))
    net = ls.network()
    for res in labelling.verify_representation(ls, net):
        report.add("labelling", res.name, res.holds, res.detail if not res.holds else "")
    _report_images(report, "labelling", net)

    S = build_suitable(A)
    report.info("suitable.carrier", S.size)
    for stage, results in _carrier_checks(A, S):
        report.extend_results(stage, results)

    uni = build_universe(S, depth)
    report.info("trails.points", len(uni.lengths))
    report.info("trails.triples", len(uni.triples))
    report.info("trails.frontier", sum(uni.frontier_ends))
    report.extend_results("setalgebra", [check_orbit_partition(uni)])
    report.extend_results("setalgebra", check_complex_vs_relativized(S, uni))

    final = reduct.build_pair_structure(A, uni)
    report.extend_results("pairs", reduct.check_pair_partition(uni, final))
    report.extend_results("pairs", [reduct.check_key_property(uni, final)])
    report.extend_results("pairs", reduct.check_replacement_closure(uni))
    report.extend_results("final", reduct.final_representation(uni, final)[1])
    report.extend_results("final", [reduct.check_chain_agreement(uni, final)])
    try:
        rebuilt = image_atom_structure(final)
        same = (
            rebuilt.identity == A.identity
            and rebuilt.converse == A.converse
            and rebuilt.cycles == A.cycles
        )
        report.add("final", "image-structure-matches", same)
    except ValueError as exc:
        report.add("final", "image-structure-matches", False, str(exc))
    _report_images(report, "final", final)


def cmd_represent(args: argparse.Namespace, report: Report) -> None:
    # the same refusals that build_universe and saturate raise, before any work
    if args.depth < 1:
        raise ValueError("bound must be at least 1")
    if args.passes < 0:
        raise ValueError("passes must be nonnegative")
    A = parse_structure_file(args.file)
    rep = classify(A)
    if not rep.is_wa:
        report.add(
            "represent",
            "precondition-wa",
            False,
            "not weakly associative; failed: " + ", ".join(rep.failed_names()),
        )
        return
    report.add("represent", "precondition-wa", True)
    _represent_pipeline(report, A, args.passes, args.depth)


def cmd_enumerate(args: argparse.Namespace, report: Report) -> None:
    """``--pipeline`` runs ``represent``'s carrier checks (:func:`_carrier_checks`)
    on each WA structure: its ``pipeline.wa-NNNN`` line passes when all of them pass."""
    from .enumerate import summarize

    summary, wa_structures = summarize(args.atoms, mod_iso=args.mod_iso)
    report.info("enumerate.total", summary.total)
    report.info("enumerate.wa", summary.wa)
    report.info("enumerate.sa", summary.sa)
    report.info("enumerate.ra", summary.ra)
    report.info("enumerate.wa_not_sa", summary.wa_not_sa)
    report.info("enumerate.sa_not_ra", summary.sa_not_ra)
    chain_ok = summary.ra <= summary.sa <= summary.wa
    report.add("enumerate", "classification-chain", chain_ok)
    if not args.pipeline:
        return
    for i, A in enumerate(wa_structures):
        checks = _carrier_checks(A, build_suitable(A))
        report.add("pipeline", f"wa-{i:04d}", all(c.holds for _, results in checks for c in results))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.  Each command
    names its function by ``command``; :func:`main` looks it up when it
    runs, so the parser holds no function."""
    parser = argparse.ArgumentParser(
        prog="warel",
        description="finite weakly associative relation algebras: checks and representations",
    )
    parser.add_argument("--report", help="also write the report to this path")
    parser.add_argument(
        "--seed", type=int, default=0, help="accepted for compatibility; no report depends on it"
    )
    parser.add_argument(
        "--timings", action="store_true", help="append wall-clock timings (non-deterministic)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a structure file and classify it as WA, SA and RA")
    p_check.add_argument("file")
    p_check.add_argument("--laws", action="store_true", help="also run the elementary-law suite")

    p_rep = sub.add_parser("represent", help="run both representation pipelines")
    p_rep.add_argument("file")
    p_rep.add_argument("--passes", type=int, default=2, help="saturation passes")
    p_rep.add_argument("--depth", type=int, default=3, help="trail length bound")

    p_enum = sub.add_parser("enumerate", help="generate and classify all structures of a size")
    p_enum.add_argument("--atoms", type=int, required=True)
    p_enum.add_argument("--pipeline", action="store_true", help="run the construction pipeline on each WA structure")
    p_enum.add_argument("--mod-iso", action="store_true", help="one representative per relabelling class")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    run = {"check": cmd_check, "represent": cmd_represent, "enumerate": cmd_enumerate}[args.command]
    started = time.monotonic()
    report = Report()
    try:
        run(args, report)
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (GuardExceeded, MemoryError) as exc:
        # the traceback holds the failed run's frames and all they built;
        # let that go, so that the report has memory to take its line
        exc.__traceback__ = None
        report.add(args.command, "budget", False, str(exc) or "out of memory")
        code = 3
    except ConsistencyError as exc:
        report.add(args.command, "internal", False, str(exc))
        code = 4
    else:
        code = 0 if report.ok else 1
    if args.timings:
        report.info("timing.total_seconds", f"{time.monotonic() - started:.3f}")
    text = report.render()
    sys.stdout.write(text)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
