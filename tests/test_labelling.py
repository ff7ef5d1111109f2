import tracemalloc
from pathlib import Path

import pytest

from test_composition_reference import network, pairs_below, ref_element_checks
from warel import core
from warel import labelling as lb
from warel.core import GuardExceeded, validate_atom_structure
from warel.fileformat import parse_structure_file

INPUTS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "inputs").glob("*.alg"))


def test_initial_system_sizes(a1, a2, two_identities):
    assert lb.initial_system(a1).point_count() == 1
    assert len(lb.initial_system(a1).label) == 1
    ls = lb.initial_system(a2)
    assert ls.point_count() == 1
    assert ls.label == {(0, 0): 0}
    ls2 = lb.initial_system(two_identities)
    assert ls2.point_count() == 2
    assert len(ls2.label) == 2


def test_initial_system_rejects_non_wa():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    with pytest.raises(ValueError):
        lb.initial_system(A)


def test_initial_flaws(a1, a2):
    assert lb.find_flaws(lb.initial_system(a1)) == []
    flaws = lb.find_flaws(lb.initial_system(a2))
    assert (0, 0, 0, 1, 1) in flaws  # e <= d;d lacks a middle point


def test_complete_system_has_no_flaws(a2):
    ls = lb.saturate(lb.initial_system(a2), 3)
    assert lb.find_flaws(ls, scope=3) == []


def test_repair_adds_collapsed_labels(a2):
    ls = lb.initial_system(a2)
    lb.repair(ls, (0, 0, 0, 1, 1))
    # d self-converse and rng d = e collapse the five labels to three
    assert ls.label == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert ls.stage == [0, 1]


def test_repair_twice_errors(a2):
    ls = lb.initial_system(a2)
    f = (0, 0, 0, 1, 1)
    lb.repair(ls, f)
    with pytest.raises(ValueError, match="not a flaw"):
        lb.repair(ls, f)


def test_repaired_triangle_satisfies_bound(a2):
    ls = lb.initial_system(a2)
    lb.repair(ls, (0, 0, 0, 1, 1))
    a = ls.label[(0, 1)]
    b = ls.label[(1, 0)]
    c = ls.label[(0, 0)]
    assert (1 << c) & a2.comp_atoms[a][b]


def test_saturate_noop_on_complete(a1):
    ls = lb.initial_system(a1)
    lb.saturate(ls, 2)
    assert ls.point_count() == 1 and len(ls.label) == 1


def test_saturate_zero_passes(a2):
    ls = lb.initial_system(a2)
    before = (ls.point_count(), dict(ls.label))
    lb.saturate(ls, 0)
    assert (ls.point_count(), dict(ls.label)) == before


def test_saturate_monotone_growth(pentagon):
    ls = lb.initial_system(pentagon)
    pts, lbls = set(range(ls.point_count())), dict(ls.label)
    for _ in range(3):
        lb.saturate(ls, 1)
        assert pts <= set(range(ls.point_count()))
        assert all(ls.label[k] == v for k, v in lbls.items())
        pts, lbls = set(range(ls.point_count())), dict(ls.label)


def test_saturate_stage_guarantee(a2, pentagon, two_identities):
    for A in (a2, pentagon, two_identities):
        ls = lb.saturate(lb.initial_system(A), 2)
        assert lb.find_flaws(ls, scope=2) == []


def test_saturate_determinism(pentagon):
    one = lb.saturate(lb.initial_system(pentagon), 2)
    two = lb.saturate(lb.initial_system(pentagon), 2)
    assert one.label == two.label and one.stage == two.stage


def test_point_budget(pentagon, monkeypatch):
    monkeypatch.setattr(core, "POINT_BUDGET", 4)
    ls = lb.initial_system(pentagon)
    with pytest.raises(GuardExceeded):
        lb.saturate(ls, 3)


@pytest.mark.parametrize("name, passes", [("a2", 2), ("pentagon", 2), ("pentagon", 3)])
def test_point_budget_counts_only_added_points(request, monkeypatch, name, passes):
    # flaws listed at the start of a pass that an earlier repair already
    # witnessed add no point, so they must not trip the budget
    A = request.getfixturevalue(name)
    free = lb.saturate(lb.initial_system(A), passes)
    budget = free.point_count()
    monkeypatch.setattr(core, "POINT_BUDGET", budget)
    capped = lb.saturate(lb.initial_system(A), passes)
    assert capped.label == free.label and capped.stage == free.stage
    monkeypatch.setattr(core, "POINT_BUDGET", budget - 1)
    with pytest.raises(GuardExceeded, match=f"point budget {budget - 1}$"):
        lb.saturate(lb.initial_system(A), passes)


def test_saturate_memory_is_linear_in_labels(pentagon):
    # bytes per label stay flat from pass 6 to pass 7 (about 300 B each);
    # an index keyed by absolute point ids, such as a bitmask per
    # (point, atom), grows as points squared and roughly doubles here
    per_label = []
    for passes in (6, 7):
        tracemalloc.start()
        try:
            ls = lb.saturate(lb.initial_system(pentagon), passes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_label.append(peak / len(ls.label))
    assert per_label[1] / per_label[0] < 1.2, per_label


def test_verify_full_passes(a1, a2, pentagon):
    for A in (a1, a2, pentagon):
        ls = lb.saturate(lb.initial_system(A), 2)
        for res in lb.verify_representation(ls, ls.network()):
            assert res.holds, res


def test_verify_modes_agree(a2, pentagon):
    # the per-atom path against the element-level reference loops; with
    # no pass the diversity atoms have empty images, so injective fails
    for A in (a2, pentagon):
        for passes in (0, 1, 2):
            ls = lb.saturate(lb.initial_system(A), passes)
            got = [(r.name, r.holds) for r in lb.verify_representation(ls, ls.network())]
            assert got == list(ref_element_checks(ls, passes).items())
            assert dict(got)["injective"] == (passes > 0)
            # a network built from the labels alone, which walks its facts,
            # gives the same lines as the system's own, details too
            net = network(A, ls.label)
            assert lb.verify_representation(ls, net) == lb.verify_representation(ls, ls.network())


def test_representation_images(a1, a2):
    ls = lb.saturate(lb.initial_system(a1), 1)
    rep = network(a1, ls.label)
    assert pairs_below(rep, 0) == frozenset()
    assert pairs_below(rep, a1.identity) == frozenset({(0, 0)})
    assert frozenset(rep.label) == frozenset({(0, 0)})

    ls2 = lb.saturate(lb.initial_system(a2), 1)
    rep2 = network(a2, ls2.label)
    assert {(0, 1), (1, 0)} <= pairs_below(rep2, 2)
    assert rep2.is_symmetric_reflexive()
    assert pairs_below(rep2, a2.identity) == frozenset((p, p) for p in range(ls2.point_count()))


def test_unit_symmetric_reflexive_after_saturation(pentagon):
    ls = lb.saturate(lb.initial_system(pentagon), 2)
    assert network(pentagon, ls.label).is_symmetric_reflexive()


def test_every_nonzero_element_has_pairs_after_one_pass(a2, pentagon):
    for A in (a2, pentagon):
        ls = lb.saturate(lb.initial_system(A), 1)
        rep = network(A, ls.label)
        for x in range(1, 1 << A.atom_count):
            assert pairs_below(rep, x), x


def _assert_rows_are_built_from_label(ls):
    # the lemma of LabellingSystem.network: the system's rows are the
    # ones built from label, rows and keys in the same order
    built = network(ls.algebra, dict(ls.label)).rows
    for mine, want in zip((ls.out, ls.inn), built):
        assert list(mine) == list(want)
        for p, row in want.items():
            assert list(mine[p].items()) == list(row.items())
    net = ls.network()
    assert net.rows[0] is ls.out and net.rows[1] is ls.inn


@pytest.mark.parametrize("passes", range(1, 7))
def test_rows_are_the_network_rows_on_pentagon(pentagon, passes):
    _assert_rows_are_built_from_label(lb.saturate(lb.initial_system(pentagon), passes))


def test_rows_are_the_network_rows_on_the_benchmark_inputs():
    assert len(INPUTS) == 17
    for path in INPUTS:
        A = parse_structure_file(str(path))
        for passes in (1, 2, 3):
            _assert_rows_are_built_from_label(lb.saturate(lb.initial_system(A), passes))
