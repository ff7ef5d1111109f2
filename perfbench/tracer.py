"""Span and count recorders wrapped around ``warel`` from the outside.

``install`` replaces every public function of every ``warel`` module,
including the copies other modules imported by name (``warel.cli`` calls
``classify``, ``build_universe`` and the rest through its own globals),
with a wrapper that records a span: name, start, end and the span that
caused it.  Each law of the suite and ``AtomStructure.compose`` are
wrapped too.  Counts come from the values the wrapped calls return.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import re
from collections import Counter
from time import perf_counter

MODULES = (
    "cli", "core", "cylindric", "enumerate", "fileformat", "labelling",
    "laws", "reduct", "relset", "suitable", "trails",
)

# Called once per element, bit, cycle orbit or trail, hundreds of
# thousands of times per operation: a wrapper would cost more than the
# call, so their time stays in the caller's self time.
HOT = {"core.iter_bits", "core.mask_of", "core.atoms_of", "core.peirce_orbit", "core.eval_term", "trails.reduce_trail"}

_CHECKED = re.compile(r"checked=(\d+) excluded=(\d+)")
_EXCLUSIONS = re.compile(r"frontier exclusions (\d+)")


def _detail(results, name: str) -> str:
    return next((r.detail for r in results if r.name == name), "")


def _checked_excluded(prefix: str, detail: str) -> dict[str, int]:
    m = _CHECKED.search(detail)
    if not m:
        return {}
    return {f"{prefix}.lower_checked": int(m.group(1)), f"{prefix}.lower_excluded": int(m.group(2))}


def _exclusions(results) -> dict[str, int]:
    m = _EXCLUSIONS.search(_detail(results, "cylindrification-nonfrontier"))
    return {"cylindric.frontier_exclusions": int(m.group(1))} if m else {}


# Counts read off return values, per span name.
COUNT_HOOKS = {
    "labelling.saturate": lambda ls: {
        "labelling.points": ls.point_count(),
        "labelling.labels": len(ls.label),
        "labelling.repairs": ls.repairs_done,
    },
    "labelling.verify_representation": lambda res: _checked_excluded(
        "labelling", _detail(res, "composition-lower-staged")
    ),
    "reduct.final_representation": lambda res: _checked_excluded(
        "reduct", _detail(res[1], "composition-lower-nonfrontier")
    ),
    "reduct.build_pair_structure": lambda ps: {"reduct.pairs": len(ps.label)},
    "trails.build_universe": lambda uni: {
        "trails.spines": uni.spines_seen,
        "trails.points": len(uni.by_id),
        "trails.triples": len(uni.triples),
        "trails.frontier": len(uni.frontier_triples()),
    },
    "cylindric.check_complex_vs_relativized": _exclusions,
    "laws.elementary_law_suite": lambda res: {"laws.laws_checked": len(res)},
    "suitable.build_suitable": lambda S: {"suitable.carrier": S.size},
}


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def take(self) -> tuple[list[list], Counter]:
        """Hand over what was recorded since the last call and start afresh."""
        out = (self.spans, self.counts)
        self.spans, self.counts = [], Counter()
        return out

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.counts.update(hook(result))
            return result

        return call

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; the consumer's
        time between items is not."""
        emitted = name + ".items"

        @functools.wraps(fn)
        def call(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[emitted] += 1
                yield item

        return call

    def wrap_counter(self, name: str, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return call


def install(tracer: Tracer) -> None:
    """Route every public ``warel`` function through ``tracer``."""
    modules = [importlib.import_module(f"warel.{m}") for m in MODULES]
    wrapped: dict[int, object] = {}
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if not fn.__module__.startswith("warel."):
                continue
            name = f"{fn.__module__.removeprefix('warel.')}.{fn.__name__}"
            if name in HOT:
                continue
            if id(fn) not in wrapped:
                wrap = tracer.wrap_generator if inspect.isgeneratorfunction(fn) else tracer.wrap
                wrapped[id(fn)] = wrap(name, fn)
            setattr(mod, attr, wrapped[id(fn)])
    core, laws = importlib.import_module("warel.core"), importlib.import_module("warel.laws")
    core.AtomStructure.compose = tracer.wrap_counter("core.compose_calls", core.AtomStructure.compose)
    laws.LAWS = tuple(
        dataclasses.replace(law, check=tracer.wrap(f"laws.law.{law.name}", law.check))
        for law in laws.LAWS
    )


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, float]]:
    """Per span name: total time, self time, call count and longest call.

    Self time is a span's duration minus the time its child spans cover;
    spans nest, so that is the sum of the direct children's durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    longest: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        total[name] += d
        own[name] += d - child[i]
        calls[name] += 1
        longest[name] = max(longest.get(name, 0.0), d)
    return total, own, calls, longest
