import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_core import full_range_witness
from test_enumerate_reference import sample_structure
from warel.core import Dom, Var, atom_decided, classify, mask_of, validate_atom_structure
from warel.enumerate import enumerate_structures
from warel.laws import LAWS, Row, elementary_law_suite

LAW_INDEX = {law.name: law for law in LAWS}
ROWS = [law for law in LAWS if isinstance(law.check, Row)]


def test_thirty_three_laws():
    assert len(LAWS) == 33
    assert len(LAW_INDEX) == 33


def test_suite_passes_on_small_wa(a1, a2, pentagon, two_identities):
    for A in (a1, a2, pentagon, two_identities):
        for res in elementary_law_suite(A):
            assert res.holds, (A, res)


def test_domain_absorption_every_element(a2):
    # x = dom x ; x checked directly for all four elements
    law = LAW_INDEX["domain-range-absorption"]
    assert law.check(a2) is None
    for x in a2.elements():
        assert a2.compose(a2.dom_el(x), x) == x


def test_cycle_law_single_atom(a1):
    assert LAW_INDEX["cycle-law"].check(a1) is None


def test_identity_atom_forces_domain(a2):
    # e;d != 0 and e below the identity force e = dom d
    e, d = mask_of([0]), mask_of([1])
    assert a2.compose(e, d) != 0
    assert a2.dom_el(d) == e
    assert LAW_INDEX["subidentity-forces-domain"].check(a2) is None


def test_suite_rejects_non_wa():
    A = validate_atom_structure(1, [], {}, [(0, 0, 0)])
    with pytest.raises(ValueError, match="ra6"):
        elementary_law_suite(A)


def test_scopes_cover_stated_ranges():
    scopes = {law.name: law.scope for law in LAWS}
    assert scopes["composition-completely-additive"] == "subsets"
    assert scopes["converse-completely-additive"] == "subsets"
    for name in (
        "atom-converse-atom",
        "cycle-law",
        "atom-domain-range-atoms",
        "range-meets-domain",
        "subidentity-forces-domain",
    ):
        assert scopes[name] == "atoms"
    assert sum(1 for law in LAWS if law.scope == "elements") == 26


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_suite_passes_on_sampled_wa(seed):
    rng = random.Random(seed)
    for _ in range(40):
        A = sample_structure(rng.randint(1, 3), rng)
        if classify(A).is_wa:
            for res in elementary_law_suite(A):
                assert res.holds, res
            return


# sha256 of repr((name, holds, detail)) over every law line of the suite,
# recorded with the per-call compose/conv_el loops the tables replaced;
# 508 of the lines fail and carry a witness.
LAW_LINES_DIGEST = "9f85c608e53ccdfc971c99428cc64908a73b68823efcd8a64ee59bd757aadded"


def test_law_verdicts_and_witnesses_golden():
    rng = random.Random(7)
    structures = list(enumerate_structures(2))
    structures += [sample_structure(3, rng) for _ in range(30)]
    assert len(structures) == 82
    h = hashlib.sha256()
    failing = 0
    for A in structures:
        for res in elementary_law_suite(A, require_wa=False):
            h.update(repr((res.name, res.holds, res.detail)).encode())
            failing += not res.holds
    assert failing == 508
    assert h.hexdigest() == LAW_LINES_DIGEST


def _decided(law):
    row = law.check
    return atom_decided(row.lhs, row.rhs, row.relation, row.guard)


def test_which_rows_are_atom_decided():
    assert len(ROWS) == 28
    assert [law.name for law in ROWS if not _decided(law)] == [
        "domain-range-definitions",
        "domain-range-converse-swap",
        "domain-range-absorption",
        "subidentity-own-domain",
        "range-meets-domain",
        "subidentity-forces-domain",
    ]


def test_repeated_dom_wrapped_or_complemented_variable_is_not_atom_decided():
    x, y = Var("x"), Var("y")
    assert atom_decided(x * y, y * x) and atom_decided(x, x * x, "<=")
    assert not atom_decided(x * x, x, "<=")
    assert not atom_decided(Dom(x), x)
    assert not atom_decided(x, x * x)
    assert not atom_decided(x, -x, "<=")
    assert not atom_decided(x * y, y, "!=0", guard=x)


def _rows_match_full_range(A):
    """Every row's witness equals the one found with each variable over its
    whole range; for the atom-decided rows that is the lemma of laws.py."""
    for law in ROWS:
        row = law.check
        full = full_range_witness(A, row.lhs, row.rhs, row.relation, dict(row.ranges), row.guard)
        assert row(A) == full, (law.name, A)


def test_rows_match_full_range_on_one_and_two_atoms():
    for n in (1, 2):
        for A in enumerate_structures(n):
            _rows_match_full_range(A)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=3))
def test_rows_match_full_range_on_sampled_structures(seed, n):
    _rows_match_full_range(sample_structure(n, random.Random(seed)))
