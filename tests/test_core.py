import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel.core import (
    StructureError,
    classify,
    mask_of,
    peirce_orbit,
    validate_atom_structure,
)
from warel.fileformat import parse_structure_file
from warel.laws import (
    LAWS,
    Comp,
    Const,
    Conv,
    Dom,
    EvalError,
    Join,
    Meet,
    Neg,
    Rng,
    Row,
    Var,
    atom_decided,
    check_equation,
    elementary_law_suite,
    eval_term,
    free_vars,
)
from warel.relset import Universe, atom_structure_of_relativization

from test_enumerate_reference import sample_structure


def ref_eval(A, t, env):
    """Reference term evaluation, lifting composition and converse from
    atoms at every node."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return {"0": 0, "1": A.full, "1'": A.identity, "0'": A.diversity}[t.symbol]
    if isinstance(t, (Join, Meet, Comp)):
        a, b = ref_eval(A, t.left, env), ref_eval(A, t.right, env)
        return a | b if isinstance(t, Join) else a & b if isinstance(t, Meet) else A.compose(a, b)
    a = ref_eval(A, t.arg, env)
    ops = {Neg: lambda: A.full & ~a, Conv: lambda: A.conv_el(a), Dom: lambda: A.dom_el(a), Rng: lambda: A.rng_el(a)}
    return ops[type(t)]()


def full_range_witness(A, lhs, rhs, relation="=", ranges=None, guard=None):
    """Reference for ``check_equation``: the first failing assignment with
    every variable over its whole range, whatever the terms."""
    ranges = ranges or {}
    names = sorted({v for t in (lhs, rhs, guard) if t is not None for v in free_vars(t)})

    def whole(kind):
        below = A.identity if kind in ("subidentities", "identity-atoms") else A.full
        els = [m for m in A.elements() if m | below == below]
        return [m for m in els if bin(m).count("1") == 1] if kind.endswith("atoms") else els

    holds = {"=": lambda a, b: a == b, "<=": lambda a, b: a & ~b == 0, "!=0": lambda a, b: a == 0 or b != 0}
    for vals in product(*(whole(ranges.get(n, "elements")) for n in names)):
        env = dict(zip(names, vals))
        if guard is not None and ref_eval(A, guard, env) == 0:
            continue
        if not holds[relation](ref_eval(A, lhs, env), ref_eval(A, rhs, env)):
            return env
    return None


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
        validate_atom_structure(2, [0], {0: 1}, [])


def test_non_involutive_converse_rejected():
    with pytest.raises(StructureError, match="involution"):
        validate_atom_structure(3, [], {0: 1, 1: 2, 2: 0}, [])


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
    assert check_equation(a2, lhs, Var("x")) is None


def test_check_equation_witness_without_identity():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    lhs = Comp(Var("x"), Const("1'"))
    w = check_equation(A, lhs, Var("x"))
    assert w == {"x": 1}


def test_check_equation_converse_product_atoms(a2):
    lhs = Conv(Comp(Var("x"), Var("y")))
    rhs = Comp(Conv(Var("y")), Conv(Var("x")))
    assert atom_decided(lhs, rhs)
    assert check_equation(a2, lhs, rhs) is None


def test_atom_decided_range_includes_zero(a2):
    # x + y <= y first fails at x an atom and y = 0, which a range of
    # atoms alone would miss.
    lhs, rhs = Join(Var("x"), Var("y")), Var("y")
    assert atom_decided(lhs, rhs, "<=")
    assert check_equation(a2, lhs, rhs, "<=") == full_range_witness(a2, lhs, rhs, "<=") == {"x": 1, "y": 0}


def test_complemented_variable_keeps_the_whole_range(a2):
    # x != 0 implies -x != 0 fails only at x = 1, a join of two atoms.
    lhs, rhs = Var("x"), Neg(Var("x"))
    assert not atom_decided(lhs, rhs, "!=0")
    assert check_equation(a2, lhs, rhs, "!=0") == {"x": a2.full}


def test_check_equation_builds_no_element_table():
    # Terms compose through the atom rows, so an atom-decided law is
    # checked above ELEMENTS_GUARD atoms too; only a law with a variable
    # over all 2**n elements refuses there.
    from warel.core import GuardExceeded
    from warel.laws import ELEMENTS_GUARD

    def diagonal(n):
        return validate_atom_structure(n, range(n), {}, [(e, e, e) for e in range(n)])

    x = Var("x")
    A = diagonal(ELEMENTS_GUARD + 1)
    assert check_equation(A, Comp(Const("1'"), x), x) is None
    with pytest.raises(GuardExceeded, match="element range needs atom_count <= 10, got 11"):
        check_equation(A, Comp(x, x), Const("0"), "<=")
    assert check_equation(diagonal(ELEMENTS_GUARD), Comp(x, x), Const("0"), "<=") == {"x": 1}


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


def test_classify_caches_its_report_on_the_structure():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    before = repr(A)
    rep = classify(A)
    assert classify(A) is rep is A.class_report
    assert repr(rep) == "ClassReport(is_wa=False, is_sa=False, is_ra=False)"
    assert repr(A) == before
    assert A == validate_atom_structure(1, [], {}, [(0, 0, 0)])


def test_ra4_fast_path_agrees_with_elements(a1, a2, pentagon):
    # ra4, ((x.1');1);1 = (x.1');1, with x over all elements
    u = Meet(Var("x"), Const("1'"))
    lhs, rhs = Comp(Comp(u, Const("1")), Const("1")), Comp(u, Const("1"))
    for A in (a1, a2, pentagon):
        assert classify(A).is_wa == (full_range_witness(A, lhs, rhs) is None)


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
    A = sample_structure(n, random.Random(seed))
    cases = [
        (Comp(Join(Var("x"), Var("y")), Var("z")),
         Join(Comp(Var("x"), Var("z")), Comp(Var("y"), Var("z")))),
        (Conv(Comp(Var("x"), Var("y"))), Comp(Conv(Var("y")), Conv(Var("x")))),
    ]
    for lhs, rhs in cases:
        assert check_equation(A, lhs, rhs) == full_range_witness(A, lhs, rhs)


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


ROOT = Path(__file__).resolve().parents[1]
# The law-suite workload's two relativizations: the full square on 2
# points (4 atoms) and the diagonal of 3 points with one symmetric edge (5).
LAW_SUITE_UNITS = (
    (Universe(2), frozenset((u, v) for u in range(2) for v in range(2))),
    (Universe(3), frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})),
)


def _memo_inputs():
    """The 17 benchmark inputs, the 4 sample structures and the two
    law-suite relativizations, grouped by atom count."""
    paths = sorted((ROOT / "perfbench" / "inputs").glob("wa*.alg"))
    paths += [ROOT / "structures" / f"{name}.alg" for name in ("a1", "a2", "no_identity", "pentagon")]
    structures = [parse_structure_file(str(path)) for path in paths]
    structures += [atom_structure_of_relativization(*unit)[0] for unit in LAW_SUITE_UNITS]
    groups = {}
    for A in structures:
        groups.setdefault(A.atom_count, []).append(A)
    return groups


def test_rows_through_the_memo_match_the_unmemoized_reference():
    # The structures of one atom count take turns, row by row, and their
    # composition tables differ: a memo keyed by the masks alone and
    # shared across structures would hand one structure's products to
    # the next.  The reference evaluates every node with A.compose.
    groups = _memo_inputs()
    assert sum(map(len, groups.values())) == 23
    assert len({A.comp_atoms for A in groups[3]}) > 1
    rows = [(law.name, law.check) for law in LAWS if isinstance(law.check, Row)]
    assert len(rows) == 28
    for group in groups.values():
        for name, row in rows:
            args = (row.lhs, row.rhs, row.relation, dict(row.ranges), row.guard)
            for A in group:
                assert check_equation(A, *args) == full_range_witness(A, *args), (name, A)


def test_suite_passes_on_nine_and_ten_atoms_in_little_memory():
    # The relativization of the full square on 3 points, as committed in
    # structures/square3.alg, and the 10-atom diagonal, the most atoms
    # the suite takes.  The memos of compose and conv_el hold only the
    # masks the suite meets, 2,826 and 3,170 values: the traced peak of a
    # whole suite measured 336,328-358,971 bytes on the square and
    # 392,830-406,368 on the diagonal (Python 3.10, 3.11 and 3.12), and
    # each bound leaves 10% above the highest.  A memo of every mask pair
    # (2**20 at 10 atoms) would take over 100 MB.
    square3 = parse_structure_file(str(ROOT / "structures" / "square3.alg"))
    assert square3 == atom_structure_of_relativization(Universe(3), frozenset(product(range(3), repeat=2)))[0]
    diagonal = validate_atom_structure(10, range(10), {}, [(e, e, e) for e in range(10)])
    for A, bound in ((square3, 395_000), (diagonal, 447_000)):
        tracemalloc.start()
        try:
            results = elementary_law_suite(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 33 and all(r.holds for r in results), [r for r in results if not r.holds]
        assert peak < bound, (A.atom_count, peak)
