import pytest

from warel.core import AtomStructure, Triple, validate_atom_structure
from warel.suitable import SuitableStructure, build_suitable, check_suitable

# ---------------------------------------------------------------------------
# Carrier triple kinds and the coordinate moves: only these tests use them.


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
        assert S.related(0, S.index[t], S.index[w])
