"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed 1 and one with
seed 2, each of the minimum two passes.  The two same-seed runs
must give identical count metrics.  The two seeds must give the same
verdict lines for every operation and the same set of failing
operations.  It also checks that BENCHMARK.json and interaction.json
name the same per-layer metrics, and that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json
and perfbench/.  Exits non-zero on any difference.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SEEDS = (1, 2)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((OUT / "runs" / f"{workload}-seed{seed}-trace1.json").read_text())
    return result, record


def check_workload(workload: str, seed_a: int, seed_b: int) -> list[str]:
    problems = []
    first, rec_a = traced_run(workload, seed_a)
    again, _ = traced_run(workload, seed_a)
    other, rec_b = traced_run(workload, seed_b)
    for name, m in first["metrics"].items():
        if m["unit"] in ("count", "ratio") and m["value"] != again["metrics"][name]["value"]:
            problems.append(f"{name}: {m['value']} then {again['metrics'][name]['value']} with seed {seed_a}")
    for name, op in rec_a["ops"].items():
        if op["verdicts"] != rec_b["ops"][name]["verdicts"]:
            problems.append(f"{name}: verdict lines differ between seeds {seed_a} and {seed_b}")
    failing = lambda rec: sorted(n for n, op in rec["ops"].items() if op["failed"])  # noqa: E731
    if failing(rec_a) != failing(rec_b):
        problems.append(f"failing operations {failing(rec_a)} with seed {seed_a}, {failing(rec_b)} with seed {seed_b}")
    for result in (first, again, other):
        if not result["correct"]:
            problems.append("a run reported correct = false")
    return problems


def check_bare_directory() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["run.py succeeded or printed a result without the warel sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    layer_map = json.loads((BENCH / "interaction.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != list(layer_map):
        problems.append("BENCHMARK.json per_layer and interaction.json name different metrics")
    problems += check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_workload(workload, *SEEDS)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += [f"{workload}: {p}" for p in found]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
