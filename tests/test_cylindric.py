import dataclasses
import tracemalloc
from pathlib import Path

import pytest

from warel import cylindric
from warel.cylindric import (
    check_complex_vs_relativized,
    check_functions,
    check_mgr2,
    check_na3,
    check_orbit_partition,
)
from warel.fileformat import parse_structure_file
from warel.suitable import build_suitable, check_suitable
from warel.trails import TripleInfo, build_universe

import test_cylindric_reference as reference
from test_trails_reference import triples_by_end


def triples_of(S, mask):
    return {S.elements[i] for i in range(S.size) if (mask >> i) & 1}


def test_cyl_empty(s2):
    for k in (0, 1, 2):
        assert s2.t_star(k, 0) == 0


def test_diag_01_a2(s2):
    assert triples_of(s2, s2.e_masks[0][1]) == {(0, 0, 0), (1, 1, 0)}


def test_cyl_2_diversity_singleton(s2):
    i = s2.index[(1, 1, 1)]
    got = s2.t_star(2, 1 << i)
    assert triples_of(s2, got) == {(0, 1, 1), (1, 0, 1), (1, 1, 1)}


def test_na3_passes(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        S = build_suitable(A)
        for c in check_na3(S):
            assert c.holds, c


def test_na3_commutativity_is_reported_not_asserted(s2):
    names = [c.name for c in check_na3(s2)]
    assert "full-commutativity-verdict" in names


def test_mgr2_passes(a2, pentagon):
    for A in (a2, pentagon):
        S = build_suitable(A)
        for c in check_mgr2(S):
            assert c.holds, c


def test_mgr2_featured_instance_value(s2):
    # both substitution chains on {(d,d,d)} give the triples with last
    # coordinate d~ = d
    from warel.cylindric import _mgr_side

    i = s2.index[(1, 1, 1)]
    lhs = _mgr_side(s2, (2, 0, 1), 1 << i)
    rhs = _mgr_side(s2, (2, 1, 0), 1 << i)
    expected = {(0, 1, 1), (1, 0, 1), (1, 1, 1)}
    assert triples_of(s2, lhs) == expected
    assert triples_of(s2, rhs) == expected


def test_functions_pass(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        S = build_suitable(A)
        for c in check_functions(S):
            assert c.holds, c


def test_atom_past_the_last_fails_its_lines(a2, s2):
    # an element whose last coordinate names no atom has no converse,
    # domain or range there: the lines that read it fail and name it
    t = (*s2.elements[0][:2], a2.atom_count)
    bad = dataclasses.replace(s2, elements=(t, *s2.elements[1:]))
    mgr2 = {c.name: c for c in check_mgr2(bad)}["mgr2-featured-instance"]
    assert (mgr2.holds, mgr2.detail) == (False, str(t))
    lines = {c.name: c for c in check_functions(bad)}
    for spec in ("iii", "v"):
        line = lines[f"singleton-identity-{spec}"]
        assert (line.holds, line.detail) == (False, str(t))


def test_functions_example_values(s2):
    c, d = s2.t_star, s2.e_masks
    i = s2.index[(1, 1, 1)]
    got_i = d[1][0] & c(0, 1 << i)
    assert triples_of(s2, got_i) == {(1, 1, 0)}
    got_iii = d[1][2] & c(2, 1 << i)
    assert triples_of(s2, got_iii) == {(0, 1, 1)}


def test_functions_all_identity_fixed(s2):
    i = s2.index[(0, 0, 0)]
    for dk, dl, ck in [(1, 0, 0), (0, 1, 1), (1, 2, 2), (2, 1, 1), (0, 2, 2), (2, 0, 0)]:
        assert s2.e_masks[dk][dl] & s2.t_star(ck, 1 << i) == 1 << i


def test_rc_single_atom_covers_everything(a1):
    S = build_suitable(a1)
    uni = build_universe(S, 2)
    groups = reference.triple_groups(S, uni)
    assert {g.bit for g in groups} == {1}
    assert all(g.blocks == (1, 1, 1) for g in groups)
    assert sum(groups.values()) == len(uni.triples)
    assert check_orbit_partition(uni).holds


def test_rc_atoms_disjoint(s2):
    uni = build_universe(s2, 2)
    groups = reference.triple_groups(s2, uni)
    per_end = {}
    for g, cnt in groups.items():
        assert g.bit and g.bit & (g.bit - 1) == 0
        per_end[g.bit] = per_end.get(g.bit, 0) + cnt
    orbits = triples_by_end(uni)
    assert per_end == {1 << t: len(orbits[t]) for t in range(s2.size)}


def test_rc_cylindrification_blocks(s2):
    uni = build_universe(s2, 2)
    for g in reference.triple_groups(s2, uni):
        for k in (0, 1, 2):
            # a triple lies in its own k-block
            assert g.blocks[k] & g.bit == g.bit
            # the relativized diagonal d_kk is everything
            assert g.diag[k][k]


def test_complex_vs_relativized(a1, a2, pentagon):
    for A, L in ((a1, 2), (a2, 3), (pentagon, 3)):
        S = build_suitable(A)
        uni = build_universe(S, L)
        for c in check_complex_vs_relativized(S, uni):
            assert c.holds, (A.names, c)


# Each check below stops at its first failing instance, in loop order.
# A patched operation makes several instances fail; the report names the
# first one, not a later one that used to overwrite it.


def _result(results, name):
    return next(c for c in results if c.name == name)


def _with_masks(S, masks):
    """S with its distinguished subsets replaced by ``masks[k][l]``."""
    return dataclasses.replace(S, e_masks=tuple(tuple(row) for row in masks))


def test_diag_composition_names_first_failure(s2):
    # emptying the (0, 1) subset breaks (k, l, m) = (0, 1, 2) and (0, 2, 1)
    masks = [list(row) for row in s2.e_masks]
    masks[0][1] = 0
    S = _with_masks(s2, masks)
    failing = [
        (k, l, m)
        for k in range(3)
        for l in range(3)
        for m in range(3)
        if m not in (k, l) and masks[k][l] != S.t_star(m, masks[k][m] & masks[m][l])
    ]
    assert len(failing) >= 2
    c = _result(check_na3(S), "diag-composition")
    assert not c.holds and c.detail == str(failing[0])
    # the suitable-structure line decides the same statement
    k, l, m = failing[0]
    diff = masks[k][l] ^ S.t_star(m, masks[k][m] & masks[m][l])
    c = _result(check_suitable(S), "saturation-identity")
    assert not c.holds
    assert c.detail == f"subset ({k},{l}) via {m}: differs at element {diff.bit_length() - 1}"


def test_diag_rigidity_names_first_failure(s2):
    S = _with_masks(s2, [[s2.full_mask] * 3] * 3)
    c = _result(check_na3(S), "diag-rigidity")
    # every (k, l) fails once the subsets are full; the first is (0, 1)
    assert not c.holds and c.detail.startswith("(0, 1, ")
    # elements 0 and 1, (e,e,e) and (e,d,d), share their 0-block
    assert c.detail == "(0, 1, 1)"
    c = _result(check_suitable(S), "subset-rigidity")
    assert not c.holds and c.detail == "elements 0,1 both in subset (0,1) and 0-related"


def test_guarded_commutativity_names_first_failure(census):
    # the first mod-iso WA 3-atom structure does not commute; with full
    # diagonals the guard is void and its failing (k, l) show
    S = build_suitable(census[0])
    assert _result(check_na3(S), "full-commutativity-verdict").detail == "does not commute"
    S = _with_masks(S, [[S.full_mask] * 3] * 3)
    c = S.t_star
    failing = {
        (k, l)
        for k in range(3)
        for l in range(3)
        if k != l
        and any(c(l, c(k, 1 << i)) != c(k, c(l, 1 << i)) for i in range(S.size))
    }
    assert len(failing) >= 2
    c = _result(check_na3(S), "guarded-commutativity")
    first = min(failing)
    assert not c.holds and c.detail.startswith(f"({first[0]}, {first[1]}, ")


def test_mgr2_names_first_failure(s2, monkeypatch):
    # the two chains read different middle indices, so every instance fails
    monkeypatch.setattr(cylindric, "_mgr_side", lambda S, order, x: order[1])
    c = _result(check_mgr2(s2), "mgr2")
    assert not c.holds and c.detail == "(0, 1, 2, 1)"


def _patched_groups(monkeypatch, change):
    """Feed the group reference every signature group after ``change``."""
    real = reference.triple_groups

    def changed(S, uni):
        out = {}
        for g, cnt in real(S, uni).items():
            g = change(g)
            out[g] = out.get(g, 0) + cnt
        return out

    monkeypatch.setattr(reference, "triple_groups", changed)


def test_diagonal_exact_names_first_failure(s2):
    # a triple whose end lies outside the carrier lies in the relativized
    # d_00, which is every triple, but in no image, d_00's included
    uni = build_universe(s2, 3)
    trip, info = next(iter(uni.triples.items()))
    bad = dataclasses.replace(uni, triples={**uni.triples, trip: TripleInfo(s2.size, info.min_length)})
    c = _result(check_complex_vs_relativized(s2, bad), "diagonal-exact")
    assert not c.holds and c.detail == "(0, 0)"


def test_cylindrification_names_first_failure(s2, monkeypatch):
    # every relativized cylinder is empty: each block meets no end
    _patched_groups(monkeypatch, lambda g: g._replace(blocks=(0, 0, 0)))
    c = _result(reference.ref_check_on_groups(s2, build_universe(s2, 3)), "cylindrification-nonfrontier")
    assert not c.holds and c.detail == "('outward', 0, 1)"


@pytest.mark.parametrize(
    "change, want",
    [
        # non-frontier triples ending in the 2-block of the top element
        # leave the relativized 2-cylinder of {top}
        (lambda b, top: b & ~top, "outward"),
        # triples whose end is not 2-related to the top element enter it
        (lambda b, top: b | top, "inward"),
    ],
    ids=("drop-top", "add-top"),
)
def test_cylindrification_names_the_first_failing_coordinate(s2, monkeypatch, change, want):
    # a patch at coordinate 2 alone leaves k = 0 and 1 passing, so the
    # line names k = 2, and the top element its only missed singleton
    top = 1 << (s2.size - 1)
    _patched_groups(monkeypatch, lambda g: g._replace(blocks=(*g.blocks[:2], change(g.blocks[2], top))))
    c = _result(reference.ref_check_on_groups(s2, build_universe(s2, 3)), "cylindrification-nonfrontier")
    assert not c.holds and c.detail == str((want, 2, top))


def _setalgebra_peak(A, depth):
    """The traced peak of the set-algebra check, in bytes, and the
    number of triples it read."""
    S = build_suitable(A)
    uni = build_universe(S, depth)
    tracemalloc.start()
    try:
        check_complex_vs_relativized(S, uni)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(uni.triples)


def test_setalgebra_memory_grows_with_the_triples_not_faster(pentagon):
    # the check keeps one entry per signature, so its peak per triple
    # does not grow from depth 3 to depth 4; masks over the triples for
    # every block would grow it with the universe
    at3, at4 = (peak / n for peak, n in (_setalgebra_peak(pentagon, d) for d in (3, 4)))
    assert at4 / at3 < 1.5, (at3, at4)


def test_setalgebra_builds_no_block():
    # wa09 at depth 4 has 29,973 triples; a check that built their
    # blocks peaked at 4,372 KiB, one that reads only signatures at 7
    A = parse_structure_file(Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "wa09.alg")
    peak, _ = _setalgebra_peak(A, 4)
    assert peak < 64 * 1024, peak


def test_cylindrification_names_inward_before_outward(s2, monkeypatch):
    # complemented block masks break both directions at (0, 1): some
    # triples enter the relativized cylinder and leave the image, some
    # non-frontier ones the other way; the inward miss is named
    full = s2.full_mask
    _patched_groups(monkeypatch, lambda g: g._replace(blocks=tuple(full & ~b for b in g.blocks)))
    c = _result(reference.ref_check_on_groups(s2, build_universe(s2, 3)), "cylindrification-nonfrontier")
    assert not c.holds and c.detail == "('inward', 0, 1)"
