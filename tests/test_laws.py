import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_core import full_range_witness
from test_enumerate_reference import sample_structure
from warel.core import AtomStructure, classify, mask_of
from warel.enumerate import enumerate_structures
from warel.laws import LAWS, Dom, Row, Var, atom_decided, elementary_law_suite

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
        for res in elementary_law_suite(A):
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


# The 22 law lines that no validated structure of one to three atoms
# fails (the other 11 fail on some structure of one or two atoms).  Each
# fails on one of these directly built structures, which the constructor
# accepts unvalidated, or holds on every AtomStructure by the lemma on
# its HOLDS_BY entry.
def _built(identity, converse, cycles):
    return AtomStructure(2, identity, converse, frozenset(cycles))


# identity atom 0 has the diversity atom 1 as its converse
SWAPPED = _built(0b01, (1, 0), {(0, 0, 0), (1, 1, 1)})
# no bijection: both atoms are converse to the identity atom
COLLAPSED = _built(0b01, (0, 0), {(0, 0, 0), (0, 1, 1), (1, 0, 1)})
# e <= d ; d (the fact (1, 1, 0)) without d <= d ; e, one of its rotations
UNCLOSED = _built(0b01, (0, 1), {(0, 0, 0), (1, 1, 0)})

FAILS_ON = {
    "converse-identity-fixed": SWAPPED,
    "converse-top-fixed": COLLAPSED,
    "peirce-absorption": UNCLOSED,
    "peirce-left-bound": UNCLOSED,
    "peirce-right-bound": UNCLOSED,
    "cycle-shift-left": UNCLOSED,
    "cycle-shift-right": UNCLOSED,
    "subidentity-below-converse": SWAPPED,
    "subidentity-self-converse": SWAPPED,
    "cycle-law": UNCLOSED,
    "domain-range-converse-swap": COLLAPSED,
}

# compose and conv_el join, over the set bits of their arguments, what
# comp_atoms and converse give each atom, on every AtomStructure
HOLDS_BY = {
    "converse-zero-fixed": "conv_el(0) is the empty join",
    "converse-monotone": "conv_el is a join, so x~ <= x~ + y~ = (x + y)~",
    "composition-monotone-left": "compose is a join over its left argument's atoms",
    "composition-additive-right": "compose is a join over its right argument's atoms",
    "composition-monotone-right": "compose is additive on the right, so z;x <= z;x + z;y = z;(x + y)",
    "zero-right-annihilates": "compose(x, 0) joins each row over no atom",
    "zero-left-annihilates": "compose(0, x) is the empty join",
    "converse-completely-additive": "conv_el is a join over its argument's atoms",
    "composition-completely-additive": "compose(z, X) is a join over the atoms of X",
    "atom-converse-atom": "conv_el(1 << a) is 1 << converse[a], one bit",
    "domain-range-definitions": "Dom x and Rng x compile to x;x~.1' and x~;x.1', the terms compared",
}


def test_every_law_line_fails_on_a_structure_or_holds_by_its_lemma():
    failing = {
        res.name for n in (1, 2) for A in enumerate_structures(n) for res in elementary_law_suite(A) if not res.holds
    }
    assert len(failing) == 11
    assert not FAILS_ON.keys() & HOLDS_BY.keys()
    assert FAILS_ON.keys() | HOLDS_BY.keys() == LAW_INDEX.keys() - failing
    for name, A in FAILS_ON.items():
        assert LAW_INDEX[name].check(A) is not None, name


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_lemma_rows_hold_on_every_directly_built_structure(data):
    # any identity mask, any converse tuple and any fact set
    n = data.draw(st.integers(1, 3))
    atom = st.integers(0, n - 1)
    A = AtomStructure(
        n,
        data.draw(st.integers(0, (1 << n) - 1)),
        tuple(data.draw(st.lists(atom, min_size=n, max_size=n))),
        frozenset(data.draw(st.sets(st.tuples(atom, atom, atom)))),
    )
    for name in HOLDS_BY:
        assert LAW_INDEX[name].check(A) is None, name
