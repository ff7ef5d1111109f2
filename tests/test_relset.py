import pytest

from warel.core import GuardExceeded, classify
from warel.relset import (
    ConcreteAlgebra,
    Network,
    Universe,
    atom_structure_of_relativization,
    build_re,
    check_relativized_wa,
    generate_subalgebra,
    identity_on,
    image_atom_structure,
    is_reflexive_on_field,
    is_symmetric,
    rel,
    relativize,
)


def test_full_algebra_size_one():
    A = build_re(Universe(1), materialize=True)
    assert len(A.carrier) == 2
    assert A.identity == A.unit == rel([(0, 0)])


def test_compose_and_inverse_on_two_points():
    A = build_re(Universe(2))
    assert A.compose(rel([(0, 1)]), rel([(1, 0)])) == rel([(0, 0)])
    assert A.converse(rel([(0, 1)])) == rel([(1, 0)])


def test_relativize_to_unit_changes_nothing():
    A = build_re(Universe(2), materialize=True)
    B = relativize(A, A.unit)
    for r in A.carrier:
        for s in A.carrier:
            assert A.compose(r, s) == B.compose(r, s)
            assert A.converse(r) == B.converse(r)
            assert A.complement(r) == B.complement(r)


def test_relativize_clips_composition():
    # Hand composition: (1,0);(0,2) = {(1,2)}, which e removes.
    U = Universe(3)
    e = frozenset(U.square()) - {(1, 2), (2, 1)}
    B = relativize(build_re(U), e)
    assert B.compose(rel([(1, 0)]), rel([(0, 2)])) == frozenset()
    assert B.identity == identity_on(range(3))


def test_relativize_requires_subrelation():
    A = build_re(Universe(2))
    bigger = frozenset(Universe(3).square())
    with pytest.raises(ValueError):
        relativize(A, bigger)


def test_identity_relativization_is_ra():
    U = Universe(3)
    e = identity_on(range(3))
    rep = check_relativized_wa(U, e)
    assert rep.is_wa and rep.is_ra


def test_full_relativization_is_ra():
    U = Universe(3)
    rep = check_relativized_wa(U, frozenset(U.square()))
    assert rep.is_ra


def test_clipped_square_is_wa():
    U = Universe(3)
    e = frozenset(U.square()) - {(1, 2), (2, 1)}
    rep = check_relativized_wa(U, e)
    assert rep.is_wa  # SA/RA outcome is data, not assumed


def test_reflexivity_is_on_the_field_only():
    # e touching only points 0 and 1 need not relate point 2
    e = rel([(0, 0), (1, 1), (0, 1), (1, 0)])
    assert is_symmetric(e) and is_reflexive_on_field(e)
    assert check_relativized_wa(Universe(3), e).is_wa
    assert not is_reflexive_on_field(rel([(0, 1), (1, 0)]))


def test_check_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        check_relativized_wa(Universe(2), rel([(0, 0), (0, 1), (1, 1)]))


def test_generate_subalgebra_constants_only():
    A = build_re(Universe(2))
    sub = generate_subalgebra(A, [])
    assert sub.carrier == frozenset(
        {frozenset(), A.unit, A.identity, A.complement(A.identity)}
    )


def test_generate_subalgebra_single_pair_generates_everything():
    A = build_re(Universe(2))
    sub = generate_subalgebra(A, [rel([(0, 1)])])
    assert len(sub.carrier) == 16


def test_generated_subalgebra_stays_inside_relativization():
    U = Universe(3)
    e = frozenset(U.square()) - {(1, 2), (2, 1)}
    B = relativize(build_re(U), e)
    sub = generate_subalgebra(B, [rel([(0, 1), (1, 0)])])
    assert all(r <= e for r in sub.carrier)


def test_materialize_guard():
    with pytest.raises(GuardExceeded):
        build_re(Universe(7), materialize=True)


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

