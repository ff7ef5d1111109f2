"""The benchmark's tracer reads counts off what ``warel`` returns.

``perfbench/tracer.py`` maps span names to hooks (``COUNT_HOOKS``) that
read attributes, methods and report details of the values the wrapped
functions return.  Each hook runs here on the real return value of its
function, the objects of ``represent structures/pentagon.alg --passes 2
--depth 3`` (and the law suite, which ``check --laws`` runs on the same
file), and each count must equal the same count read straight off the
object.  So a change under ``src/`` that drops or renames what a hook
reads fails a tier-1 test, not only the traced benchmark pass.
"""

import importlib.util
from pathlib import Path

from warel import labelling, reduct
from warel.cylindric import check_complex_vs_relativized
from warel.fileformat import parse_structure_file
from warel.laws import LAWS, elementary_law_suite
from warel.suitable import build_suitable
from warel.trails import build_universe

from test_trails_reference import ref_universe

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _detail(results, name):
    (detail,) = [r.detail for r in results if r.name == name]
    return detail


def test_every_count_hook_reads_what_its_function_returns():
    A = parse_structure_file(ROOT / "structures" / "pentagon.alg")
    ls = labelling.initial_system(A)
    initial_points = len(ls.stage)
    labelling.saturate(ls, 2)
    verified = labelling.verify_representation(ls, ls.network())
    S = build_suitable(A)
    uni = build_universe(S, 3)
    net = reduct.build_pair_structure(A, uni)
    final = reduct.final_representation(uni, net)
    cylindric = check_complex_vs_relativized(S, uni)
    laws = elementary_law_suite(A)

    lengths, passes = uni.lengths, ls.passes_done
    trail_checked = sum(max(lengths[u], lengths[v]) < uni.bound for u, v in net.label)
    staged_checked = sum(ls.stage[u] < passes and ls.stage[v] < passes for u, v in ls.label)
    exclusions = _detail(cylindric, "cylindrification-nonfrontier").removeprefix("frontier exclusions ")
    # each span name: the value its function returns, and the counts
    # read straight off that value
    cases = {
        "labelling.saturate": (ls, {
            "labelling.points": len(ls.stage),
            "labelling.labels": len(ls.label),
            "labelling.repairs": len(ls.stage) - initial_points,  # one fresh point each
        }),
        "labelling.verify_representation": (verified, {
            "labelling.lower_checked": staged_checked,
            "labelling.lower_excluded": len(ls.label) - staged_checked,
        }),
        "reduct.final_representation": (final, {
            "reduct.lower_checked": trail_checked,
            "reduct.lower_excluded": len(net.label) - trail_checked,
        }),
        "reduct.build_pair_structure": (net, {"reduct.pairs": len(net.label)}),
        "trails.build_universe": (uni, {
            "trails.spines": ref_universe(S, 3)[1],  # the round-trip-free spines
            "trails.points": len(uni.lengths),
            "trails.triples": len(uni.triples),
            "trails.frontier": sum(info.is_frontier(uni.bound) for info in uni.triples.values()),
        }),
        "cylindric.check_complex_vs_relativized": (cylindric, {
            "cylindric.frontier_exclusions": int(exclusions),
        }),
        "laws.elementary_law_suite": (laws, {"laws.laws_checked": len(LAWS)}),
        "suitable.build_suitable": (S, {"suitable.carrier": len(S.elements)}),
    }
    hooks = _load_tracer().COUNT_HOOKS
    assert hooks.keys() == cases.keys()
    for name, (returned, want) in cases.items():
        assert hooks[name](returned) == want, name
    # the pentagon checks all pass, so each count above is a full scan's
    assert all(r.holds for r in (*verified, *final[1], *cylindric, *laws))
    assert len(uni.triples) > len(uni.lengths) > 0 and trail_checked > 0 and staged_checked > 0
