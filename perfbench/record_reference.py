"""Record ``perfbench/reference.json``: the digest of every operation's
report, per workload.  Run from the repository root, at a commit whose
reports are the reference:

    python3 perfbench/record_reference.py

The digest leaves out timing lines and the lines that depend on the seed
(``run.digest``), so one digest serves every seed; it is taken with
seeds 1, 2 and 3, and the recording fails if they disagree.  ``run.py``
then prints how many operations of a run drift from it.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads

SEEDS = (1, 2, 3)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cli = run.import_cli()
    ref: dict = {}
    problems = []
    for w in spec["workloads"]:
        for seed in SEEDS:
            workdir = run.OUT / f"reference-{w['name']}-{seed}"
            try:
                for op in workloads.build(w["name"], seed, workdir):
                    _, _, report, _ = run.run_op(cli, op)
                    recorded = ref.setdefault(w["name"], {}).setdefault(op.name, run.digest(report))
                    if recorded != run.digest(report):
                        problems.append(f"{w['name']} {op.name}: seed {seed} gives another digest than seed {SEEDS[0]}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    (run.BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
