import gc
import tracemalloc
from dataclasses import replace

import pytest

from warel import reduct
from warel.core import mask_of
from warel.fileformat import parse_structure_file
from warel.relset import image_atom_structure
from warel.suitable import build_suitable
from warel.trails import build_universe

from test_composition_reference import pairs_below
from test_labelling import INPUTS
from test_reduct_reference import ref_carrier, ref_check_pair_partition, ref_pair_split
from test_trails_reference import list_base_pairs


@pytest.fixture(scope="module")
def uni2(s2):
    return build_universe(s2, 3)


@pytest.fixture(scope="module")
def net2(a2, uni2):
    return reduct.build_pair_structure(a2, uni2)


def phi(S, xmask):
    acc = 0
    for i, t in enumerate(S.elements):
        if (1 << t[2]) & xmask:
            acc |= 1 << i
    return acc


def test_reduct_compose_with_empty(s2):
    for y in ref_carrier(s2):
        assert reduct._compose(s2, 0, y) == 0
        assert reduct._compose(s2, y, 0) == 0


def test_reduct_identity_is_diagonal(s2):
    identity = s2.e_masks[0][1]
    for x in ref_carrier(s2):
        assert reduct._compose(s2, x, identity) == x
        assert reduct._compose(s2, identity, x) == x


def test_reduct_closure(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        for c in reduct.check_reduct_closure(build_suitable(A)):
            assert c.holds, c


def test_reduct_isomorphism(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        for c in reduct.check_reduct_isomorphism(A, build_suitable(A)):
            assert c.holds, (A.names, c)


def test_phi_values(a2, s2):
    assert phi(s2, a2.full) == s2.full_mask
    assert phi(s2, 0) == 0
    d_image = {s2.elements[i] for i in range(s2.size) if (phi(s2, mask_of([1])) >> i) & 1}
    assert d_image == {(0, 1, 1), (1, 0, 1), (1, 1, 1)}


def test_phi_converse_of_symmetric_atom(a2, s2):
    d = phi(s2, mask_of([1]))
    assert reduct._converse(s2, d) == d


def test_labels_well_defined(a2, net2):
    # build_pair_structure raises on any disagreement, decided from its
    # per-point writes on this keyed carrier; spot-check the diagonal
    # rule: the label of (u, u) is the domain of any outgoing label
    assert net2.algebra is a2
    for (u, v), a in net2.label.items():
        duu = net2.label[(u, u)]
        assert a2.atom_domains[a] == 1 << duu


def test_diagonal_pairs_are_identity(a2, uni2, net2):
    # the identity pairs are the loops: one per point, each labelled
    # with an identity atom
    loops = sorted(pr for pr in net2.label if pr[0] == pr[1])
    assert loops == [(p, p) for p in range(len(uni2.lengths))]
    assert all((1 << net2.label[pr]) & a2.identity for pr in loops)


def test_base_pairs_carry_diversity_labels(a2, uni2, net2):
    # pairs of distinct points from one-element trails over a diversity
    # triple carry that triple's coordinates as labels
    base = list_base_pairs(a2, uni2)
    assert base
    for (u, v) in base:
        a = net2.label[(u, v)]
        assert not (1 << a) & a2.identity


def test_pair_partition(uni2, net2):
    for c in reduct.check_pair_partition(uni2, net2):
        assert c.holds, c


def test_key_property(uni2, net2):
    assert reduct.check_key_property(uni2, net2).holds


def test_key_property_triangles_are_final_triangles(a2, pentagon, census):
    """Every ordered pair of points of a reachable triple is an edge of
    the final network, so each (x, y, z) that ``check_key_property``
    tests is a triangle whose labels are among ``net.facts``: the check
    is decided on ``facts``, with ``composition-upper-exact``."""
    for A in (a2, pentagon, *census):
        uni = build_universe(build_suitable(A), 3)
        net = reduct.build_pair_structure(A, uni)
        for trip in uni.triples:
            for x in trip:
                assert all(y in net.rows[0][x] for y in trip), (trip, x)
                for y in trip:
                    for z in trip:
                        abc = (net.label[(x, y)], net.label[(y, z)], net.label[(x, z)])
                        assert abc in net.facts, (trip, x, y, z)


def test_replacement_steps_table():
    # 21 non-permutations, realizable in one to three replacements
    assert len(reduct.REPLACEMENT_STEPS) == 21
    assert set(reduct.REPLACEMENT_STEPS.values()) == {1, 2, 3}
    singles = [f for f, d in reduct.REPLACEMENT_STEPS.items() if d == 1]
    assert len(singles) == 6
    assert reduct.REPLACEMENT_STEPS[(1, 0, 0)] == 3  # a swap costs three


def test_replacement_closure(a1, pentagon, uni2):
    assert reduct.check_replacement_closure(uni2)[0].holds
    for A, L in ((a1, 2), (pentagon, 3)):
        uni = build_universe(build_suitable(A), L)
        assert reduct.check_replacement_closure(uni)[0].holds


def test_final_representation_checks(a2, uni2, net2):
    final, checks = reduct.final_representation(uni2, net2)
    assert final is net2
    for c in checks:
        assert c.holds, c
    assert pairs_below(final, 0) == frozenset()
    assert pairs_below(final, a2.full) == frozenset(final.label)


def test_final_identity_only_unit_on_a1(a1):
    S = build_suitable(a1)
    uni = build_universe(S, 2)
    final, checks = reduct.final_representation(uni, reduct.build_pair_structure(a1, uni))
    assert all(c.holds for c in checks)
    assert pairs_below(final, a1.identity) == frozenset(final.label)


def test_composition_inclusion_d_with_d(a2, net2):
    d = mask_of([1])
    gd = pairs_below(net2, d)
    composed = {
        (u, w)
        for (u, v1) in gd
        for (v2, w) in gd
        if v1 == v2
    }
    assert composed & frozenset(net2.label) <= pairs_below(net2, a2.compose(d, d))


def test_rebuilt_structure_matches(a1, a2, pentagon):
    for A, L in ((a1, 2), (a2, 3), (pentagon, 3)):
        S = build_suitable(A)
        uni = build_universe(S, L)
        rb = image_atom_structure(reduct.build_pair_structure(A, uni))
        assert rb.cycles == A.cycles
        assert rb.identity == A.identity
        assert rb.converse == A.converse


def test_chain_agreement(a1, a2, pentagon):
    for A, L in ((a1, 2), (a2, 3), (a2, 4), (pentagon, 3)):
        S = build_suitable(A)
        uni = build_universe(S, L)
        assert reduct.check_chain_agreement(uni, reduct.build_pair_structure(A, uni)).holds


def test_descent_pairs_shorten_names_first_failure(a2, uni2, net2):
    # two points listed as their own descent partners both fail, as a
    # point is not shorter than itself; the reference names the first.
    # No walk makes such lists, so the check under test, which decides
    # the line by the pair-kind lemma, is not run on them
    p, q = [pid for pid, n in enumerate(uni2.lengths) if n > 1][:2]
    own = list(uni2.own_triples)
    for pid in (p, q):
        trip = list(own[pid])
        trip[(uni2.pointers[pid] + 1) % 3] = pid
        own[pid] = tuple(trip)
    bad = replace(uni2, own_triples=own)
    lines = ref_check_pair_partition(ref_pair_split(a2, bad, net2.label))
    c = next(c for c in lines if c.name == "descent-pairs-shorten")
    assert not c.holds and c.detail == str((p, p))


def test_pair_lengths_cover_exactly_the_labelled_pairs(pentagon, census):
    # the labelled pairs are the pairs of the reached triples, and
    # final_representation checks those whose points are both shorter
    # than the bound and counts the rest of the labels as excluded (the
    # split is compared where the check runs to the end)
    held = 0
    for A, depth in ((pentagon, 3), *((B, 3) for B in census)):
        uni = build_universe(build_suitable(A), depth)
        net = reduct.build_pair_structure(A, uni)
        offered = {(i, j) for trip in uni.triples for i in trip for j in trip}
        assert offered == net.label.keys()
        lengths = uni.lengths
        checked = sum(1 for u, v in offered if max(lengths[u], lengths[v]) < uni.bound)
        _, checks = reduct.final_representation(uni, net)
        (lower,) = [c for c in checks if c.name == "composition-lower-nonfrontier"]
        if lower.holds:
            held += 1
            assert lower.detail == f"checked={checked} excluded={len(offered) - checked}"
        else:
            assert A is not pentagon, lower
    assert held > 1


def _universe_and_pairs_peak_per_point(A, depth):
    S = build_suitable(A)
    # a full collection empties CPython's tuple free lists; a tuple taken
    # from them is not traced, which would hide up to 2,000 tuples of each
    # size from the smaller depth
    gc.collect()
    tracemalloc.start()
    try:
        uni = build_universe(S, depth)
        reduct.build_pair_structure(A, uni)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(uni.lengths)


def test_universe_and_pairs_memory_grow_with_the_points_not_faster(pentagon):
    # points are ints with one length, pointer and own triple each, and
    # the pairs and triples per point stay about level from depth 3 to
    # depth 4, so the peak per point stays flat
    at3 = _universe_and_pairs_peak_per_point(pentagon, 3)
    at4 = _universe_and_pairs_peak_per_point(pentagon, 4)
    assert at4 / at3 < 1.3, (at3, at4)


def test_pair_stage_keeps_one_copy_of_the_labels(pentagon):
    # the rows are the network's only copy of its labels: with both of
    # them built, the pair stage retains under 170 bytes a labelled pair,
    # an entry in a row and one in a column and the rows themselves; a
    # tuple-keyed dict of the labels beside them would push it past 200
    uni = build_universe(build_suitable(pentagon), 4)
    gc.collect()
    tracemalloc.start()
    try:
        net = reduct.build_pair_structure(pentagon, uni)
        net.rows
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs = sum(net.sizes)
    assert pairs == len(net.label)
    assert retained / pairs < 170, (retained, pairs)


def test_pair_partition_keeps_no_pair_set(pentagon):
    # the partition check reads each point's descent partners off the
    # universe's lists and counts the loops off the network's walk, so
    # it builds no set of point pairs: its peak stays under 150 bytes a
    # point, where a set of the four descent pairs of each point and one
    # of the loops beside it would take about 600
    uni = build_universe(build_suitable(pentagon), 4)
    net = reduct.build_pair_structure(pentagon, uni)
    net.sizes
    gc.collect()
    tracemalloc.start()
    try:
        checks = reduct.check_pair_partition(uni, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.holds for c in checks), checks
    assert peak / len(uni.lengths) < 150, (peak, len(uni.lengths))


class _Unwalkable(dict):
    """A dict that answers lookups but refuses every walk over itself."""

    def _refuse(self, *args):
        raise AssertionError("the triples were walked")

    __iter__ = keys = values = items = _refuse


def test_pair_stage_makes_no_pass_over_the_triples(a2, pentagon):
    # on a consistent universe over a keyed carrier the pair stage writes
    # each point's labels off its own triple, looked up by key, and
    # decides consistency from those writes: it never walks ``uni.triples``
    assert len(INPUTS) == 17
    for A in (a2, pentagon, *map(parse_structure_file, INPUTS)):
        for depth in (1, 2, 3):
            uni = build_universe(build_suitable(A), depth)
            want = reduct.build_pair_structure(A, uni)
            got = reduct.build_pair_structure(A, replace(uni, triples=_Unwalkable(uni.triples)))
            assert got.rows == want.rows and got.facts == want.facts


def test_pair_partition_makes_no_pass_over_the_triples(a2, pentagon):
    # the partition lines are decided by the pair-kind lemma, off the
    # universe's per-point lists and base triples: ``uni.triples`` is
    # only counted, never walked, and the lines are the reference's
    for A in (a2, pentagon, *map(parse_structure_file, INPUTS)):
        for depth in (1, 2, 3):
            uni = build_universe(build_suitable(A), depth)
            net = reduct.build_pair_structure(A, uni)
            want = ref_check_pair_partition(ref_pair_split(A, uni, net.label))
            assert all(c.holds for c in want), want
            assert reduct.check_pair_partition(replace(uni, triples=_Unwalkable(uni.triples)), net) == want
