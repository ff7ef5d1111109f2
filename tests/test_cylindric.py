import pytest

from warel import cylindric
from warel.cylindric import (
    ComplexAlgebra,
    RelativizedSetAlgebra,
    check_complex_vs_relativized,
    check_functions,
    check_mgr2,
    check_na3,
    check_orbit_partition,
    rc_build,
)
from warel.enumerate import summarize
from warel.suitable import build_suitable
from warel.trails import build_universe


@pytest.fixture(scope="module")
def s2(a2):
    return build_suitable(a2)


def triples_of(S, mask):
    return {S.elements[i] for i in range(S.size) if (mask >> i) & 1}


def test_cyl_empty(s2):
    cm = ComplexAlgebra(s2)
    for k in (0, 1, 2):
        assert cm.cyl(k, 0) == 0


def test_diag_01_a2(s2):
    cm = ComplexAlgebra(s2)
    assert triples_of(s2, cm.diag(0, 1)) == {(0, 0, 0), (1, 1, 0)}


def test_cyl_2_diversity_singleton(s2):
    cm = ComplexAlgebra(s2)
    i = s2.index[(1, 1, 1)]
    got = cm.cyl(2, 1 << i)
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

    cm = ComplexAlgebra(s2)
    i = s2.index[(1, 1, 1)]
    lhs = _mgr_side(cm, (2, 0, 1), 1 << i)
    rhs = _mgr_side(cm, (2, 1, 0), 1 << i)
    expected = {(0, 1, 1), (1, 0, 1), (1, 1, 1)}
    assert triples_of(s2, lhs) == expected
    assert triples_of(s2, rhs) == expected


def test_functions_pass(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        S = build_suitable(A)
        for c in check_functions(S):
            assert c.holds, c


def test_functions_example_values(s2):
    cm = ComplexAlgebra(s2)
    i = s2.index[(1, 1, 1)]
    got_i = cm.diag(1, 0) & cm.cyl(0, 1 << i)
    assert triples_of(s2, got_i) == {(1, 1, 0)}
    got_iii = cm.diag(1, 2) & cm.cyl(2, 1 << i)
    assert triples_of(s2, got_iii) == {(0, 1, 1)}


def test_functions_all_identity_fixed(s2):
    cm = ComplexAlgebra(s2)
    i = s2.index[(0, 0, 0)]
    for dk, dl, ck in [(1, 0, 0), (0, 1, 1), (1, 2, 2), (2, 1, 1), (0, 2, 2), (2, 0, 0)]:
        assert cm.diag(dk, dl) & cm.cyl(ck, 1 << i) == 1 << i


def test_rc_single_atom_covers_everything(a1):
    S = build_suitable(a1)
    uni = build_universe(S, 2)
    rc = rc_build(uni)
    assert rc.atom_mask(0) == rc.full
    assert check_orbit_partition(uni).holds


def test_rc_atoms_disjoint(s2):
    uni = build_universe(s2, 2)
    rc = rc_build(uni)
    acc = 0
    for t in range(s2.size):
        m = rc.atom_mask(t)
        assert m
        assert not (acc & m)
        acc |= m
    assert acc == rc.full


def test_rc_cylindrification_blocks(s2):
    uni = build_universe(s2, 2)
    rc = rc_build(uni)
    for k in (0, 1, 2):
        x = 1
        cx = rc.cyl(k, x)
        assert cx & x == x
        assert rc.cyl(k, cx) == cx


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


def test_diag_composition_names_first_failure(s2, monkeypatch):
    real = ComplexAlgebra.diag
    # dropping the (0, 1) diagonal breaks (k, l, m) = (0, 1, 2) and (0, 2, 1)
    monkeypatch.setattr(
        ComplexAlgebra, "diag", lambda cm, k, l: 0 if (k, l) == (0, 1) else real(cm, k, l)
    )
    cm = ComplexAlgebra(s2)
    failing = [
        (k, l, m)
        for k in range(3)
        for l in range(3)
        for m in range(3)
        if m not in (k, l) and cm.diag(k, l) != cm.cyl(m, cm.diag(k, m) & cm.diag(m, l))
    ]
    assert len(failing) >= 2
    c = _result(check_na3(s2), "diag-composition")
    assert not c.holds and c.detail == str(failing[0])


def test_diag_rigidity_names_first_failure(s2, monkeypatch):
    monkeypatch.setattr(ComplexAlgebra, "diag", lambda cm, k, l: cm.full)
    c = _result(check_na3(s2), "diag-rigidity")
    # every (k, l) fails once the diagonals are full; the first is (0, 1)
    assert not c.holds and c.detail.startswith("(0, 1, ")


def test_guarded_commutativity_names_first_failure(monkeypatch):
    # the first mod-iso WA 3-atom structure does not commute; with full
    # diagonals the guard is void and its failing (k, l) show
    _, census = summarize(3, mod_iso=True)
    S = build_suitable(census[0])
    assert _result(check_na3(S), "full-commutativity-verdict").detail == "does not commute"
    monkeypatch.setattr(ComplexAlgebra, "diag", lambda cm, k, l: cm.full)
    cm = ComplexAlgebra(S)
    failing = {
        (k, l)
        for k in range(3)
        for l in range(3)
        if k != l
        and any(cm.cyl(l, cm.cyl(k, 1 << i)) != cm.cyl(k, cm.cyl(l, 1 << i)) for i in range(S.size))
    }
    assert len(failing) >= 2
    c = _result(check_na3(S), "guarded-commutativity")
    first = min(failing)
    assert not c.holds and c.detail.startswith(f"({first[0]}, {first[1]}, ")


def test_mgr2_names_first_failure(s2, monkeypatch):
    # the two chains read different middle indices, so every instance fails
    monkeypatch.setattr(cylindric, "_mgr_side", lambda cm, order, x: order[1])
    c = _result(check_mgr2(s2), "mgr2")
    assert not c.holds and c.detail == "(0, 1, 2, 1)"


def test_diagonal_exact_names_first_failure(s2, monkeypatch):
    monkeypatch.setattr(RelativizedSetAlgebra, "diag", lambda rc, k, l: 0)
    c = _result(check_complex_vs_relativized(s2, build_universe(s2, 3)), "diagonal-exact")
    assert not c.holds and c.detail == "(0, 0)"


def test_cylindrification_names_first_failure(s2, monkeypatch):
    monkeypatch.setattr(RelativizedSetAlgebra, "orbit_cyl", lambda rc, k, end: 0)
    c = _result(
        check_complex_vs_relativized(s2, build_universe(s2, 3)), "cylindrification-nonfrontier"
    )
    assert not c.holds and c.detail == "('outward', 0, 1)"
