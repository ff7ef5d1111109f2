"""Benchmark for ``warel``: the four things users do with it, end to end
and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload represent-census --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

One run sets the workload up (imports ``warel`` from ``./src``, writes and
parses the seed's inputs), then makes a fixed number of passes over the
workload's operations: as many as take ``--seconds`` at the pass times
measured when the benchmark was added, and at least two (three for
deep-labelling), so that every report is seen twice.  Each operation is one in-process call
of ``warel.cli.main(argv)`` with stdout captured, checked against its
oracle (``workloads.py``).  Other tenants of the host slow this machine
by up to three times for seconds to minutes, so every timed operation and
set-up is bracketed by a fixed reference loop (``slowdown()``) and
reported at the machine's quiet speed: ``wall_s`` adds up each
operation's median scaled time, and ``setup_s`` is the median scaled
time of fresh-process set-ups spread between the timed operations.  The
raw seconds are printed beside them; per-layer seconds are scaled by the
slowdown of the pass they were taken in.  The last line printed is one JSON object:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics, taken with every public ``warel``
function wrapped by ``tracer.py``.  ``--workload all`` runs every
workload both ways, each in a fresh process, and prints every metric
with its unit, the tracing overhead and what each layer metric moves.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
# Seconds of one pass over each workload's operations when the benchmark
# was added (medians of ten runs, Python 3.11, 2-vCPU x86 VM).
NOMINAL_PASS_S = {"represent-census": 10.3, "deep-labelling": 6.2, "law-suite": 2.05, "census": 2.3}
# deep-labelling's two operations last seconds each, so a slow phase of
# the machine that starts or ends inside one is only partly scaled away
# (``Speedometer``); the median of three passes leaves one such pass out.
MIN_PASSES = {"represent-census": 2, "deep-labelling": 3, "law-suite": 2, "census": 2}

sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_cli():
    """``warel.cli`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "warel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no warel sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import warel.cli

    if Path(warel.cli.__file__).resolve().parent != (SRC / "warel").resolve():
        raise SystemExit(f"perfbench: imported warel from {warel.cli.__file__}, not from {SRC}")
    return warel.cli


def setup(workload: str, seed: int, workdir: Path):
    """Import warel and write and parse the inputs: (seconds, cli, ops)."""
    t0 = perf_counter()
    cli = import_cli()
    ops = workloads.build(workload, seed, workdir)
    return perf_counter() - t0, cli, ops


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, so that import is never cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


# One reference unit (``_unit``) takes about this long on the 2-vCPU VM
# the benchmark was written on when no other tenant slows it; it only
# sets the scale of the reported seconds.
UNIT_S = 0.016


def _unit() -> int:
    """A fixed piece of pure-Python work of the kinds warel does: small
    dicts and sets keyed by tuples, calls of a small function on ints, and
    frozensets of pairs composed like relations."""
    total = 0
    for _ in range(80):
        seen, table = set(), {}
        for i in range(250):
            k = (i * 7919) % 1009
            table[(k, i & 7)] = i
            seen.add(k ^ (i >> 3))
        total += sum(v for (k, j), v in table.items() if j == 3) + len(seen)
    step = lambda x, y: (x * y + 3) & 1023  # noqa: E731
    for i in range(60000):
        total = step(total, i) ^ (i >> 2)
    n = 12
    rel = frozenset((i, (i * 5 + 1) % n) for i in range(n)) | frozenset((i, (i + 3) % n) for i in range(n))
    closure = rel
    for _ in range(6):
        succ: dict[int, list[int]] = {}
        for a, b in closure:
            succ.setdefault(a, []).append(b)
        closure = frozenset((a, c) for a, b in rel for c in succ.get(b, ())) | rel
    for _ in range(25):
        total += len(frozenset((a, c) for a, b in closure for c in succ.get(b, ())))
    return total


def slowdown() -> float:
    """How much slower than ``UNIT_S`` the machine runs right now: the
    mean time of three reference units, divided by ``UNIT_S``.  The mean,
    not the fastest, because a slowdown that comes and goes within a unit
    costs the operations its average, not its best moment (and tracked
    them better in trials).  The collector is off, so that the heap the
    program under test leaves behind cannot slow the units."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(3):
            _unit()
        return (perf_counter() - t0) / 3 / UNIT_S
    finally:
        gc.enable()


class Speedometer:
    """Scales timed work to the machine's quiet speed.

    On a shared host other tenants slow this vCPU by up to three times, in
    phases that last from seconds to minutes, and they slow the reference
    unit much as they slow warel.  ``scale`` divides a time by the mean of
    the ``slowdown()`` read just before and just after the work; the
    reading after one piece of work is the reading before the next, so
    work must be timed back to back with nothing else in between."""

    def __init__(self) -> None:
        self.last = slowdown()

    def scale(self, seconds: float) -> float:
        now = slowdown()
        scaled = 2 * seconds / (self.last + now)
        self.last = now
        return scaled


def run_op(cli, op):
    """One operation: (seconds, exit code, report, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # an operation that raises or exits is a failed one
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue(), error


# Report lines that depend on the seed rather than on the program: an
# image lists point pairs, and a failure witness atom indices, numbered
# after the seed's atom order; the frontier-exclusion count comes from
# the seeded samples in cylindric.
SEED_LINES = re.compile(r"timing\.|\S+\.image\.|witness: |note: frontier exclusions ")


def digest(report: str) -> str:
    """sha256 of a report without its timing and seed-dependent lines,
    first 16 hex digits: the same for every seed."""
    kept = "".join(line for line in report.splitlines(keepends=True) if not SEED_LINES.match(line))
    return hashlib.sha256(kept.encode()).hexdigest()[:16]


def layer_metrics(spans: list[list], counts) -> dict[str, float]:
    """Per-layer metrics of one pass (named as in BENCHMARK.json)."""
    total, own, calls, longest = tracing.span_totals(spans)
    t = lambda *names: sum(total[n] for n in names)  # noqa: E731
    raw = sum(
        1
        for name, _, _, parent in spans
        if name == "core.validate_atom_structure" and parent >= 0 and spans[parent][0] == "enumerate.enumerate_structures"
    )
    emitted = counts["enumerate.enumerate_structures.items"]
    m = {
        "reduct.final_s": t("reduct.final_representation"),
        "reduct.pairs_s": t("reduct.build_pair_structure"),
        "reduct.iso_s": t("reduct.check_reduct_isomorphism"),
        "labelling.saturate_s": t("labelling.saturate"),
        "labelling.verify_s": t("labelling.verify_representation"),
        "trails.universe_s": t("trails.build_universe"),
        "trails.triples_per_spine": counts["trails.triples"] / counts["trails.spines"] if counts["trails.spines"] else 0.0,
        "cylindric.axioms_s": t("cylindric.check_na3", "cylindric.check_mgr2", "cylindric.check_functions"),
        "cylindric.setalgebra_s": t("cylindric.check_orbit_partition", "cylindric.check_complex_vs_relativized"),
        "laws.suite_s": t("laws.elementary_law_suite"),
        "laws.slowest_law_s": max((v for k, v in longest.items() if k.startswith("laws.law.")), default=0.0),
        "core.classify_s": t("core.classify"),
        "core.classify_calls": calls["core.classify"],
        "core.compose_calls": counts["core.compose_calls"],
        "enumerate.generate_s": t("enumerate.enumerate_structures"),
        "enumerate.raw_structures": raw,
        "enumerate.emitted": emitted,
        "enumerate.emit_ratio": emitted / raw if raw else 0.0,
        "suitable.build_s": t("suitable.build_suitable"),
        "suitable.check_s": t("suitable.check_suitable"),
        "relset.rebuild_s": t("relset.image_atom_structure"),
        "fileformat.parse_s": t("fileformat.parse_structure_file"),
    }
    for key in (
        "reduct.pairs", "reduct.lower_checked", "reduct.lower_excluded",
        "labelling.points", "labelling.labels", "labelling.repairs",
        "labelling.lower_checked", "labelling.lower_excluded",
        "trails.spines", "trails.points", "trails.triples", "trails.frontier",
        "cylindric.frontier_exclusions", "laws.laws_checked", "suitable.carrier",
    ):
        m[key] = counts[key]
    for layer in tracing.MODULES:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
    return m


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has ten samples beyond it ({n} samples)"
    return f"p{100 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.4f} s ({n} samples)"


def passes_for(workload: str, seconds: float) -> int:
    """How many passes one run makes: as many as fit in ``seconds`` at the
    pass times of ``NOMINAL_PASS_S``, and at least ``MIN_PASSES``, so that
    every report is seen twice.  The count does not depend on how fast the
    code under test runs, so a parent and a change are judged by the same
    number of samples."""
    return max(MIN_PASSES[workload], int(seconds / NOMINAL_PASS_S[workload]))


def measure(cli, ops, passes: int, tracer, between=lambda slot, meter: None):
    """``passes`` passes over ``ops``.  ``between(slot, meter)`` runs
    before the ``slot``-th operation, outside its timing.  Returns (pass
    times, per-pass layer metrics, per-operation record, first spans)."""
    times: list[float] = []
    layers: list[dict] = []
    first_spans: list[list] = []
    seen: dict[str, dict] = {}
    meter = Speedometer()
    slot = 0
    for _ in range(passes):
        for op in ops:
            between(slot, meter)
            slot += 1
            gc.collect()
            dt, code, report, error = run_op(cli, op)
            scaled = meter.scale(dt)
            failed, unexpected = workloads.judge(op, code, report, error)
            rec = seen.setdefault(op.name, {"report": report, "times": [], "scaled": [], "failed": 0, "unexpected": []})
            rec["scaled"].append(scaled)
            if report != rec["report"]:
                failed = True
                unexpected = unexpected + ["report differs from the operation's first report"]
            rec["times"].append(dt)
            rec["failed"] += failed
            rec["unexpected"] += [u for u in unexpected if u not in rec["unexpected"]]
            if error:
                rec["error"] = error
        times.append(sum(rec["times"][-1] for rec in seen.values()))
        if tracer is not None:
            spans, counts = tracer.take()
            # Layer seconds at the machine's quiet speed, like wall_s: each
            # divided by the slowdown of the pass it was taken in.
            pass_slowdown = times[-1] / sum(rec["scaled"][-1] for rec in seen.values())
            layers.append({k: v / pass_slowdown if k.endswith("_s") else v for k, v in layer_metrics(spans, counts).items()})
            first_spans = first_spans or spans
    return times, layers, seen, first_spans


def pass_seconds(seen: dict[str, dict], key: str = "scaled") -> float:
    """One pass: the sum of each operation's median time over the run's
    passes.  By default each time is first divided by the machine's
    ``slowdown()`` measured just before and after it, which gives the
    seconds the pass takes at the machine's quiet speed; ``key="times"``
    gives the raw seconds."""
    return sum(statistics.median(rec[key]) for rec in seen.values())


def load_reference() -> dict:
    path = BENCH / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run(args, spec) -> int:
    # One vCPU for the run and the set-up processes it starts, so that
    # ``slowdown()`` measures the vCPU the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT / f"inputs-{args.workload}-{args.seed}"
    try:
        _, cli, ops = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        passes = passes_for(args.workload, args.seconds)
        setups: list[float] = []
        between = lambda slot, meter: None  # noqa: E731
        if not args.trace:
            # Spread over the run, so that one slow phase of the machine
            # meets only a few of them; each runs between two timed
            # operations, never beside one.
            at = Counter(i * passes * len(ops) // SETUP_PROBES for i in range(SETUP_PROBES))
            between = lambda slot, meter: setups.extend(  # noqa: E731
                meter.scale(setup_probe(args.workload, args.seed)) for _ in range(at[slot])
            )
        times, layers, seen, spans = measure(cli, ops, passes, tracer, between)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["times"]) for r in seen.values())
    failed = sum(r["failed"] for r in seen.values())
    correct = not any(r["unexpected"] for r in seen.values())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(times)} passes of {len(ops)} operations in {sum(times):.2f} s")
    print(f"raw pass time: median {statistics.median(times):.4f} s; {tail(times)}; raw wall_s {pass_seconds(seen, 'times'):.4f} s")
    print(f"wall_s at quiet speed {pass_seconds(seen):.4f} s (machine slowdown: median {statistics.median(t / u for r in seen.values() for t, u in zip(r['times'], r['scaled'])):.3f})")
    print(f"op_failure_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, rec in seen.items():
        if rec["failed"]:
            checks = ", ".join(sorted(workloads.failing_checks(rec["report"]))) or rec.get("error", "")
            known = "" if rec["unexpected"] else " (known failure)"
            print(f"failed {name}: {rec['failed']}/{len(rec['times'])} runs; failing checks: {checks}{known}")
        for reason in rec["unexpected"]:
            print(f"WRONG {name}: {reason}")

    ref = load_reference().get(args.workload, {})
    digests = {name: digest(rec["report"]) for name, rec in seen.items()}
    drift = [name for name in digests if digests[name] != ref.get(name)]
    print(f"report_drift = {len(drift)} of {len(digests)} operations differ from perfbench/reference.json {drift or ''}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {
            name: (statistics.median_low if units[name] == "count" else statistics.median)(p[name] for p in layers)
            for name in names
            if name != "trace.wall_s"
        }
        values["trace.wall_s"] = pass_seconds(seen)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps({"seed": args.seed, "pass": 0, "spans": spans}))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": pass_seconds(seen),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        print(f"setup_s samples: {' '.join(f'{x:.4f}' for x in setups)}")
    record = {
        "ops": {
            name: {
                "failed": rec["failed"],
                "times": rec["times"],
                "scaled": rec["scaled"],
                "digest": digests[name],
                "verdicts": workloads.verdicts(rec["report"]),
            }
            for name, rec in seen.items()
        },
        "metrics": values,
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    layer_map = json.loads((BENCH / "interaction.json").read_text())
    ok = True
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}")
        result = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            print("\n".join("   " + line for line in lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr)
                return 1
            result[trace] = json.loads(lines[-1])
            ok = ok and result[trace]["correct"]
            for name, m in result[trace]["metrics"].items():
                moves = layer_map.get(name)
                note = f"  -> {moves['moves']} on {', '.join(moves['on'])}" if moves else ""
                print(f"   {name} = {m['value']:.6g} {m['unit']}{note}")
        r = result[0]
        print(f"   op_failure_rate = {r['failed']}/{r['attempted']} = {r['failed'] / r['attempted']:.4f}; correct = {r['correct']}")
        overhead = result[1]["metrics"]["trace.wall_s"]["value"] - r["metrics"]["wall_s"]["value"]
        print(f"   trace_overhead_s = {overhead:.4f} s (traced wall_s minus untraced wall_s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        workdir = OUT / f"probe-{args.workload}-{args.seed}"
        try:
            print(setup(args.workload, args.seed, workdir)[0])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
