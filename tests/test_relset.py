import pytest

from warel.core import classify
from warel.relset import (
    Network,
    Universe,
    atom_structure_of_relativization,
    image_atom_structure,
)


def _atoms(U, e):
    """The relativization's atom structure and the atom of each pair."""
    A, pairs = atom_structure_of_relativization(U, e)
    return A, {p: 1 << i for i, p in enumerate(pairs)}


def test_full_algebra_size_one():
    A, atom = _atoms(Universe(1), Universe(1).square())
    assert A.atom_count == 1
    assert A.identity == A.full == atom[(0, 0)]


def test_compose_and_inverse_on_two_points():
    A, atom = _atoms(Universe(2), Universe(2).square())
    assert A.compose(atom[(0, 1)], atom[(1, 0)]) == atom[(0, 0)]
    assert A.conv_el(atom[(0, 1)]) == atom[(1, 0)]


def test_relativize_to_unit_changes_nothing():
    # relativized to the whole square, every composable pair of pairs
    # composes to exactly the pair the full algebra gives
    U = Universe(2)
    A, atom = _atoms(U, U.square())
    for (u, v), x in atom.items():
        for (v2, w), y in atom.items():
            assert A.compose(x, y) == (atom[(u, w)] if v2 == v else 0)


def test_relativize_clips_composition():
    # Hand composition: (1,0);(0,2) = {(1,2)}, which e removes.
    U = Universe(3)
    e = frozenset(U.square()) - {(1, 2), (2, 1)}
    A, atom = _atoms(U, e)
    assert A.compose(atom[(1, 0)], atom[(0, 2)]) == 0
    assert A.identity == atom[(0, 0)] | atom[(1, 1)] | atom[(2, 2)]


def test_identity_relativization_is_ra():
    U = Universe(3)
    e = frozenset((p, p) for p in range(3))
    rep = classify(atom_structure_of_relativization(U, e)[0])
    assert rep.is_wa and rep.is_ra


def test_full_relativization_is_ra():
    U = Universe(3)
    rep = classify(atom_structure_of_relativization(U, frozenset(U.square()))[0])
    assert rep.is_ra


def test_clipped_square_is_wa():
    U = Universe(3)
    e = frozenset(U.square()) - {(1, 2), (2, 1)}
    rep = classify(atom_structure_of_relativization(U, e)[0])
    assert rep.is_wa  # SA/RA outcome is data, not assumed


def test_reflexivity_is_on_the_field_only():
    # e touching only points 0 and 1 need not relate point 2
    e = frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})
    assert classify(atom_structure_of_relativization(Universe(3), e)[0]).is_wa


def test_check_rejects_asymmetric():
    # (0, 1) without (1, 0) would have no converse atom
    with pytest.raises(ValueError, match=r"not symmetric: \(1, 0\) is missing"):
        atom_structure_of_relativization(Universe(2), frozenset({(0, 0), (0, 1), (1, 1)}))
    with pytest.raises(ValueError, match=r"not symmetric: \(0, 1\) is missing"):
        atom_structure_of_relativization(Universe(2), frozenset({(0, 0), (1, 0), (1, 1)}))


def test_check_rejects_pairs_outside_the_universe():
    # a symmetric, reflexive unit on {0, 1, 2} over a universe of size 2
    e = frozenset({(0, 0), (2, 2), (0, 2), (2, 0)})
    with pytest.raises(ValueError, match=r"\(0, 2\) lies outside U x U for \|U\| = 2"):
        atom_structure_of_relativization(Universe(2), e)
    with pytest.raises(ValueError, match=r"\(-1, -1\) lies outside"):
        atom_structure_of_relativization(Universe(2), frozenset({(-1, -1), (0, 0)}))


def test_atom_structure_of_relativization_roundtrip():
    U = Universe(2)
    e = frozenset(U.square())
    A, pairs = atom_structure_of_relativization(U, e)
    assert A.atom_count == 4
    assert classify(A).is_ra
    rebuilt = image_atom_structure(Network(A, {p: i for i, p in enumerate(pairs)}))
    assert rebuilt.cycles == A.cycles
    assert rebuilt.identity == A.identity
    assert rebuilt.converse == A.converse
