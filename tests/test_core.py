import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel.core import (
    Comp,
    Const,
    Dom,
    EvalError,
    Meet,
    StructureError,
    Var,
    check_equation,
    classify,
    eval_term,
    mask_of,
    peirce_orbit,
    validate_atom_structure,
)
from warel.enumerate import sample_structure


def test_a1_validates(a1):
    assert a1.atom_count == 1
    assert a1.identity == 1
    assert a1.cycles == frozenset({(0, 0, 0)})


def test_a2_autoclose_matches_hand_transforms(a2):
    # Oracle: apply the six transforms by hand to (d,d,e) and (d,d,d)
    # with d self-converse.
    #   (d,d,e) -> (d~,e,d) = (d,e,d); (d,e~,d~) = (d,e,d);
    #              (d~,d~,e~) = (d,d,e); (e~,d,d~) = (e,d,d); (e,d~,d) = (e,d,d)
    #   (d,d,d) -> itself throughout.
    # Plus the identity self-cycle (e,e,e) added for the identity atom.
    expected = {(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0)}
    assert set(a2.cycles) == expected
    assert peirce_orbit((0, 1), (1, 1, 0)) == frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)})


def test_identity_atom_must_be_self_converse():
    with pytest.raises(StructureError, match="self-converse"):
        validate_atom_structure(2, [0], [(0, 1)], [])


def test_non_involutive_converse_rejected():
    with pytest.raises(StructureError, match="involution"):
        validate_atom_structure(3, [], (1, 2, 0), [])


def test_unclosed_facts_rejected_without_autoclose():
    with pytest.raises(StructureError, match="not closed"):
        validate_atom_structure(2, [0], {}, [(1, 1, 0)])


def test_zero_atoms_rejected():
    with pytest.raises(StructureError):
        validate_atom_structure(0, [], {}, [])


def test_eval_compose_and_dom(a2):
    d = Var("x")
    env = {"x": mask_of([1])}
    assert eval_term(a2, Comp(d, d), env) == mask_of([0, 1])
    assert eval_term(a2, Dom(d), env) == mask_of([0])


def test_eval_compose_with_zero(a1, a2):
    for A in (a1, a2):
        for x in A.elements():
            assert eval_term(A, Comp(Var("x"), Const("0")), {"x": x}) == 0


def test_eval_unbound_variable(a2):
    with pytest.raises(EvalError, match="unbound"):
        eval_term(a2, Var("y"), {"x": 1})


def test_check_equation_right_identity_holds(a2):
    lhs = Comp(Var("x"), Const("1'"))
    assert check_equation(a2, lhs, Var("x"), mode="elements") is None


def test_check_equation_witness_without_identity():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    lhs = Comp(Var("x"), Const("1'"))
    w = check_equation(A, lhs, Var("x"), mode="elements")
    assert w == {"x": 1}


def test_check_equation_converse_product_atoms(a2):
    from warel.core import Conv

    lhs = Conv(Comp(Var("x"), Var("y")))
    rhs = Comp(Conv(Var("y")), Conv(Var("x")))
    assert check_equation(a2, lhs, rhs, mode="atoms") is None


def test_classify_small(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        rep = classify(A)
        assert rep.is_ra and rep.is_sa and rep.is_wa
        assert rep.failures == ()


def test_classify_no_identity_fails_ra6():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    rep = classify(A)
    assert not rep.is_wa
    assert ("ra6", {"x": 1}) in rep.failures


def test_ra4_fast_path_agrees_with_elements(a1, a2, pentagon):
    # ra4, ((x.1');1);1 = (x.1');1, with x over all elements
    u = Meet(Var("x"), Const("1'"))
    lhs, rhs = Comp(Comp(u, Const("1")), Const("1")), Comp(u, Const("1"))
    for A in (a1, a2, pentagon):
        assert classify(A).is_wa == (check_equation(A, lhs, rhs, mode="elements") is None)


structure_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=structure_seeds, n=st.integers(min_value=1, max_value=4))
def test_classification_chain_random(seed, n):
    A = sample_structure(n, random.Random(seed))
    rep = classify(A)
    if rep.is_ra:
        assert rep.is_sa
    if rep.is_sa:
        assert rep.is_wa


@settings(max_examples=40, deadline=None)
@given(seed=structure_seeds, n=st.integers(min_value=1, max_value=3))
def test_atom_and_element_mode_agree_on_additive_axioms(seed, n):
    from warel.core import Conv, Join

    A = sample_structure(n, random.Random(seed))
    cases = [
        (Comp(Join(Var("x"), Var("y")), Var("z")),
         Join(Comp(Var("x"), Var("z")), Comp(Var("y"), Var("z")))),
        (Conv(Comp(Var("x"), Var("y"))), Comp(Conv(Var("y")), Conv(Var("x")))),
    ]
    for lhs, rhs in cases:
        atom_verdict = check_equation(A, lhs, rhs, mode="atoms") is None
        elem_verdict = check_equation(A, lhs, rhs, mode="elements") is None
        assert atom_verdict == elem_verdict


@settings(max_examples=40, deadline=None)
@given(seed=structure_seeds, n=st.integers(min_value=1, max_value=3))
def test_composition_monotone_random(seed, n):
    A = sample_structure(n, random.Random(seed))
    rng = random.Random(seed ^ 0xABCD)
    for _ in range(20):
        x = rng.randrange(1 << n)
        y = x | rng.randrange(1 << n)
        z = rng.randrange(1 << n)
        assert A.compose(x, z) | A.compose(y, z) == A.compose(y, z)
        assert A.compose(z, x) | A.compose(z, y) == A.compose(z, y)
        assert A.conv_el(x) | A.conv_el(y) == A.conv_el(y)


@settings(max_examples=60, deadline=None)
@given(seed=structure_seeds, n=st.integers(min_value=1, max_value=4))
def test_element_tables_match_definitions(seed, n):
    A = sample_structure(n, random.Random(seed))
    C, V = A.comp_table, A.conv_table
    assert len(C) == len(V) == 1 << n
    for x in A.elements():
        assert V[x] == A.conv_el(x)
        for y in A.elements():
            assert C[x][y] == A.compose(x, y), (x, y)


def test_comp_table_guarded_above_ten_atoms():
    from warel.core import TABLE_GUARD, GuardExceeded

    assert TABLE_GUARD == 10
    n = TABLE_GUARD + 1
    A = validate_atom_structure(n, range(n), {}, [(e, e, e) for e in range(n)])
    with pytest.raises(GuardExceeded):
        A.comp_table
