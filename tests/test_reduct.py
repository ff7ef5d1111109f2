import tracemalloc
from dataclasses import replace

import pytest

from warel import reduct
from warel.core import mask_of
from warel.enumerate import summarize
from warel.relset import image_atom_structure
from warel.suitable import build_suitable
from warel.trails import build_universe

from test_reduct_reference import ref_carrier


@pytest.fixture(scope="module")
def s2(a2):
    return build_suitable(a2)


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
    ra = reduct.ra_reduct(s2)
    for y in ref_carrier(s2):
        assert ra.compose(0, y) == 0
        assert ra.compose(y, 0) == 0


def test_reduct_identity_is_diagonal(s2):
    ra = reduct.ra_reduct(s2)
    assert ra.identity == s2.e_masks[0][1]
    for x in ref_carrier(s2):
        assert ra.compose(x, ra.identity) == x
        assert ra.compose(ra.identity, x) == x


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
    ra = reduct.ra_reduct(s2)
    d = phi(s2, mask_of([1]))
    assert ra.converse(d) == d


def test_labels_well_defined(a2, net2):
    # build_pair_structure raises on any disagreement; spot-check the
    # diagonal rule: the label of (u, u) is the domain of any outgoing label
    assert net2.algebra is a2
    for (u, v), a in net2.label.items():
        duu = net2.label[(u, u)]
        assert a2.dom_atom(a) == 1 << duu


def test_diagonal_pairs_are_identity(a2, uni2, net2):
    # the identity pairs are the loops: one per point, each labelled
    # with an identity atom
    loops = sorted(pr for pr in net2.label if pr[0] == pr[1])
    assert loops == [(p, p) for p in range(len(uni2.lengths))]
    assert all((1 << net2.label[pr]) & a2.identity for pr in loops)


def test_base_pairs_carry_diversity_labels(a2, uni2, net2):
    # pairs of distinct points from one-element trails over a diversity
    # triple carry that triple's coordinates as labels
    base = reduct._base_pairs(a2, uni2)
    assert base
    for (u, v) in base:
        a = net2.label[(u, v)]
        assert not (1 << a) & a2.identity


def test_pair_partition(uni2, net2):
    for c in reduct.check_pair_partition(uni2, net2):
        assert c.holds, c


def test_key_property(uni2, net2):
    assert reduct.check_key_property(uni2, net2).holds


def test_key_property_triangles_are_final_triangles(a2, pentagon):
    """Every ordered pair of points of a reachable triple is an edge of
    the final network, so each (x, y, z) that ``check_key_property``
    tests is a triangle whose labels are among ``net.facts``: the check
    re-decides part of ``composition-upper-exact``."""
    _, census = summarize(3, mod_iso=True)
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
    assert final.pairs(0) == frozenset()
    assert final.pairs(a2.full) == frozenset(final.label)


def test_final_identity_only_unit_on_a1(a1):
    S = build_suitable(a1)
    uni = build_universe(S, 2)
    final, checks = reduct.final_representation(uni, reduct.build_pair_structure(a1, uni))
    assert all(c.holds for c in checks)
    assert final.pairs(a1.identity) == frozenset(final.label)


def test_composition_inclusion_d_with_d(a2, net2):
    d = mask_of([1])
    gd = net2.pairs(d)
    composed = {
        (u, w)
        for (u, v1) in gd
        for (v2, w) in gd
        if v1 == v2
    }
    assert composed & frozenset(net2.label) <= net2.pairs(a2.compose(d, d))


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


def test_descent_pairs_shorten_names_first_failure(uni2, net2):
    # two points listed as their own descent partners both fail, as a
    # point is not shorter than itself; the first is named
    p, q = [pid for pid, n in enumerate(uni2.lengths) if n > 1][:2]
    own = list(uni2.own_triples)
    for pid in (p, q):
        trip = list(own[pid])
        trip[(uni2.pointers[pid] + 1) % 3] = pid
        own[pid] = tuple(trip)
    bad = replace(uni2, own_triples=own)
    c = next(c for c in reduct.check_pair_partition(bad, net2) if c.name == "descent-pairs-shorten")
    assert not c.holds and c.detail == str((p, p))


def test_pair_lengths_cover_exactly_the_labelled_pairs(pentagon):
    # final_representation passes the checked pairs as pair_min_length
    # keys, and counts the rest of the labels as excluded
    _, census = summarize(3, mod_iso=True)
    for A, depth in ((pentagon, 3), *((B, 3) for B in census)):
        uni = build_universe(build_suitable(A), depth)
        assert uni.pair_min_length.keys() == reduct.build_pair_structure(A, uni).label.keys()


def _universe_and_pairs_peak_per_point(A, depth):
    S = build_suitable(A)
    tracemalloc.start()
    try:
        uni = build_universe(S, depth)
        reduct.build_pair_structure(A, uni)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(uni.lengths)


def test_universe_and_pairs_memory_grow_with_the_points_not_faster(pentagon):
    # points are ints with one length, pointer and spine entry each, and
    # the pairs and triples per point stay about level from depth 3 to
    # depth 4, so the peak per point stays flat
    at3 = _universe_and_pairs_peak_per_point(pentagon, 3)
    at4 = _universe_and_pairs_peak_per_point(pentagon, 4)
    assert at4 / at3 < 1.3, (at3, at4)
