import re
from dataclasses import replace

import pytest
from hypothesis import given, settings

from warel.core import AtomStructure, CheckResult, Triple, validate_atom_structure
from warel.cylindric import check_na3
from warel.enumerate import summarize
from warel.suitable import COORDS, SuitableStructure, build_suitable, check_suitable

from test_cylindric_reference import hand_built

# ---------------------------------------------------------------------------
# Carrier triple kinds, the coordinate moves and the coordinate
# relations: only these tests use them.


def related(S: SuitableStructure, k: int, i: int, j: int) -> bool:
    """Whether elements i and j share their k-key."""
    return S.tkey[k][i] == S.tkey[k][j]


def classify_triple(S: SuitableStructure, t: Triple) -> tuple[str, Triple]:
    """Kind and forced normal form of a carrier triple.

    An identity atom at coordinate 2 forces (s0, s0, dom s0); at
    coordinate 0 it forces (rng s2, s2, s2); at coordinate 1 it forces
    (s2~, dom s2, s2).  Two identity coordinates force all three equal.
    """
    if S.algebra is None:
        raise ValueError("triple classification needs the source algebra")
    A = S.algebra
    if t not in S.index:
        raise ValueError(f"triple {t} is not in the carrier")
    s0, s1, s2 = t
    idm = A.identity
    flags = tuple(bool((1 << c) & idm) for c in t)
    n_id = sum(flags)
    if n_id == 0:
        return ("diversity", t)
    if n_id >= 2:
        if not (s0 == s1 == s2):
            raise AssertionError(f"two identity coordinates but unequal triple {t}")
        return ("all-identity", t)
    atom_bit = lambda m: m.bit_length() - 1
    if flags[2]:
        form = (s0, s0, atom_bit(A.dom_atom(s0)))
        kind = "identity-at-2"
    elif flags[0]:
        form = (atom_bit(A.rng_atom(s2)), s2, s2)
        kind = "identity-at-0"
    else:
        form = (A.converse[s2], atom_bit(A.dom_atom(s2)), s2)
        kind = "identity-at-1"
    if form != t:
        raise AssertionError(f"forced form {form} differs from carrier triple {t}")
    return (kind, form)


def coordinate_transforms(A: AtomStructure, t: Triple) -> frozenset[Triple]:
    """The orbit of a carrier triple under the six coordinate moves."""
    s0, s1, s2 = t
    cv = A.converse
    return frozenset(
        {
            (s0, s1, s2),
            (s1, s0, cv[s2]),
            (cv[s1], cv[s2], s0),
            (cv[s2], cv[s1], cv[s0]),
            (s2, cv[s0], cv[s1]),
            (cv[s0], s2, s1),
        }
    )


def test_carrier_a1(a1):
    S = build_suitable(a1)
    assert S.elements == ((0, 0, 0),)
    for k in (0, 1, 2):
        for l in (0, 1, 2):
            assert S.e_masks[k][l] == 1


def test_carrier_a2(a2):
    # Elements are the triples (s0, s1, s2) with s1 <= s2 ; s0,
    # enumerated from the fact set by hand:
    #   (e,e,e), (e,d,d), (d,e,d), (d,d,e), (d,d,d)
    S = build_suitable(a2)
    assert set(S.elements) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    e01 = {S.elements[i] for i in range(S.size) if (S.e_masks[0][1] >> i) & 1}
    assert e01 == {(0, 0, 0), (1, 1, 0)}
    assert S.e_masks[0][0] == S.full_mask


def test_carrier_size_matches_fact_count(a2, pentagon):
    for A in (a2, pentagon):
        assert build_suitable(A).size == len(A.cycles)


def test_build_rejects_non_wa():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    with pytest.raises(ValueError):
        build_suitable(A)


def test_carrier_closed_under_coordinate_transforms(a2, pentagon):
    for A in (a2, pentagon):
        S = build_suitable(A)
        for t in S.elements:
            assert coordinate_transforms(A, t) <= set(S.elements)


def test_check_passes_on_built(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        for c in check_suitable(build_suitable(A)):
            assert c.holds, c


def test_check_flags_asymmetric_subsets(a2):
    S = build_suitable(a2)
    masks = [list(row) for row in S.e_masks]
    masks[0][1] = 0  # break the (0,1) subset while keeping (1,0)
    bad = SuitableStructure(
        S.elements, S.tkey, tuple(tuple(r) for r in masks), algebra=a2
    )
    names = {c.name: c for c in check_suitable(bad)}
    assert not names["saturation-identity"].holds
    assert names["saturation-identity"].detail


def test_check_vacuous_on_empty_carrier():
    empty = SuitableStructure((), ((), (), ()), ((0, 0, 0),) * 3)
    names = {c.name: c.holds for c in check_suitable(empty)}
    assert all(names.values())


def test_classify_triples(a2):
    S = build_suitable(a2)
    assert classify_triple(S, (1, 1, 0)) == ("identity-at-2", (1, 1, 0))
    assert classify_triple(S, (0, 0, 0)) == ("all-identity", (0, 0, 0))
    assert classify_triple(S, (1, 1, 1)) == ("diversity", (1, 1, 1))
    assert classify_triple(S, (0, 1, 1)) == ("identity-at-0", (0, 1, 1))
    assert classify_triple(S, (1, 0, 1)) == ("identity-at-1", (1, 0, 1))


def test_classify_triple_rejects_outsiders(a2):
    S = build_suitable(a2)
    with pytest.raises(ValueError, match="not in the carrier"):
        classify_triple(S, (0, 1, 0))


def test_two_identity_coordinates_force_all_equal(pentagon, two_identities):
    for A in (pentagon, two_identities):
        S = build_suitable(A)
        for t in S.elements:
            idc = sum(1 for c in t if (1 << c) & A.identity)
            if idc >= 2:
                assert t[0] == t[1] == t[2]


def test_saturation_witnesses_exist(a2):
    # every element is coordinate-related to a forced-form element in
    # the right subset
    S = build_suitable(a2)
    A = a2
    bit = lambda m: m.bit_length() - 1
    for t in S.elements:
        w = (t[0], t[0], bit(A.dom_atom(t[0])))
        assert w in S.index
        assert S.in_e(S.index[w], 0, 1)
        assert related(S, 0, S.index[t], S.index[w])


# ---------------------------------------------------------------------------
# The axiom loops of ``check_suitable`` before axioms (iii)-(v) became
# shared decisions of the structure and (ii) was decided by its lemma:
# the reference for all five lines.  Axiom (i) was structural then, so
# the reference reads it as holding; it is compared on well-typed
# structures only, and ``test_every_line_can_fail`` fails it.


def ref_check_suitable(S: SuitableStructure) -> tuple[CheckResult, ...]:
    out: list[CheckResult] = []
    out.append(CheckResult("components-well-typed", True))
    ok = all(
        related(S, k, i, i)
        and all(related(S, k, i, j) == related(S, k, j, i) for j in range(S.size))
        for k in COORDS
        for i in range(S.size)
    )
    out.append(CheckResult("coordinate-equivalences", ok))

    detail = ""
    ok = True
    for k in COORDS:
        if S.e_masks[k][k] != S.full_mask:
            ok = False
            detail = f"diagonal subset {k}{k} is not the whole carrier"
            break
    out.append(CheckResult("diagonal-subsets-full", ok, detail))

    detail = ""
    ok = True
    for k in COORDS:
        for l in COORDS:
            for m in COORDS:
                if m == k or m == l:
                    continue
                lhs = S.e_masks[k][l]
                rhs = S.t_star(m, S.e_masks[k][m] & S.e_masks[m][l])
                if lhs != rhs:
                    ok = False
                    diff = (lhs ^ rhs).bit_length() - 1
                    detail = f"subset ({k},{l}) via {m}: differs at element {diff}"
                    break
            if not ok:
                break
        if not ok:
            break
    out.append(CheckResult("saturation-identity", ok, detail))

    detail = ""
    ok = True
    for k in COORDS:
        for l in COORDS:
            if k == l:
                continue
            mask = S.e_masks[k][l]
            for i in range(S.size):
                if not (mask >> i) & 1:
                    continue
                for j in range(i + 1, S.size):
                    if (mask >> j) & 1 and related(S, k, i, j):
                        ok = False
                        detail = f"elements {i},{j} both in subset ({k},{l}) and {k}-related"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    out.append(CheckResult("subset-rigidity", ok, detail))
    return tuple(out)


# Each suitable axiom (iii)-(v) and the cylindric axiom that restates it.
TWINS = (
    ("diagonal-subsets-full", "diag-diagonal-full"),
    ("saturation-identity", "diag-composition"),
    ("subset-rigidity", "diag-rigidity"),
)


def twin_detail(c: CheckResult) -> str:
    """The ``check_na3`` witness that the suitable line c implies."""
    if c.holds or c.name == "diagonal-subsets-full":
        return ""
    nums = [int(n) for n in re.findall(r"\d+", c.detail)]
    if c.name == "saturation-identity":
        k, l, m, _ = nums
        return str((k, l, m))
    i, _, k, l, _ = nums
    return str((k, l, 1 << i))


def assert_matches_reference(S: SuitableStructure) -> set[str]:
    """The five lines are the reference's, verdicts and witnesses, and
    each twin pair agrees; returns the suitable lines that fail."""
    got = check_suitable(S)
    assert got == ref_check_suitable(S)
    lines = {c.name: c for c in got + check_na3(S)}
    for ours, theirs in TWINS:
        assert lines[theirs].holds == lines[ours].holds
        assert lines[theirs].detail == twin_detail(lines[ours])
    return {ours for ours, _ in TWINS if not lines[ours].holds}


def test_hand_built_match_reference():
    failed = set()

    @settings(max_examples=200, deadline=None)
    @given(S=hand_built())
    def prop(S):
        failed.update(assert_matches_reference(S))

    prop()
    assert failed == {ours for ours, _ in TWINS}


def test_flipped_masks_match_reference(a1, a2, pentagon, two_identities):
    # every built structure with one bit of one distinguished subset
    # flipped, each bit of each subset in turn
    failed = set()
    for A in (a1, a2, pentagon, two_identities, *summarize(3, mod_iso=True)[1]):
        S = build_suitable(A)
        assert not assert_matches_reference(S)
        for k in COORDS:
            for l in COORDS:
                for i in range(S.size):
                    masks = [list(row) for row in S.e_masks]
                    masks[k][l] ^= 1 << i
                    bad = replace(S, e_masks=tuple(map(tuple, masks)))
                    failed |= assert_matches_reference(bad)
    assert failed == {ours for ours, _ in TWINS}
