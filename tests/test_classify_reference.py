"""``classify`` against the law loops it replaced.

The reference below composes singleton masks through the lifted
composition and converse, defined here from ``iter_bits``, exactly as
``classify`` did before it read its laws from the per-structure atom
tables.  Both must give the same report: the same verdicts and the
same failures, witness dicts with their key order included, compared
field by field (``ClassReport`` builds its failures on first access).
The reference still tests ra5 and ra8, which ``classify`` skips because
they hold on every ``AtomStructure``, and it keeps the element-mode ra4
loop, whose verdicts ``classify`` must match.
"""

import hashlib
import random
from functools import cache
from typing import NamedTuple, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from warel import core
from warel.core import (
    ELEMENTS_GUARD,
    TABLE_GUARD,
    AtomStructure,
    GuardExceeded,
    classify,
    iter_bits,
    validate_atom_structure,
)
from warel.enumerate import enumerate_structures, sample_structure


def ref_compose(A: AtomStructure, xm: int, ym: int) -> int:
    acc = 0
    table = A.comp_atoms
    for x in iter_bits(xm):
        row = table[x]
        for y in iter_bits(ym):
            acc |= row[y]
    return acc


def ref_conv_el(A: AtomStructure, xm: int) -> int:
    acc = 0
    for x in iter_bits(xm):
        acc |= 1 << A.converse[x]
    return acc


def ref_ra5_to_ra10(A: AtomStructure) -> list[tuple[str, dict[str, int]]]:
    fails: list[tuple[str, dict[str, int]]] = []
    n = A.atom_count
    atoms = [1 << a for a in range(n)]
    one = A.full
    ident = A.identity
    compose = lambda x, y: ref_compose(A, x, y)
    conv_el = lambda x: ref_conv_el(A, x)

    for xa in atoms:
        for ya in atoms:
            for za in atoms:
                if compose(xa | ya, za) != compose(xa, za) | compose(ya, za):
                    fails.append(("ra5", {"x": xa, "y": ya, "z": za}))
                    break
            else:
                continue
            break
        else:
            continue
        break

    for xa in atoms:
        if compose(xa, ident) != xa:
            fails.append(("ra6", {"x": xa}))
            break

    for xa in atoms:
        if conv_el(conv_el(xa)) != xa:
            fails.append(("ra7", {"x": xa}))
            break

    for xa in atoms:
        for ya in atoms:
            if conv_el(xa | ya) != conv_el(xa) | conv_el(ya):
                fails.append(("ra8", {"x": xa, "y": ya}))
                break
        else:
            continue
        break

    for xa in atoms:
        for ya in atoms:
            if conv_el(compose(xa, ya)) != compose(conv_el(ya), conv_el(xa)):
                fails.append(("ra9", {"x": xa, "y": ya}))
                break
        else:
            continue
        break

    for xa_i in range(n):
        xa = 1 << xa_i
        for ya in atoms:
            lhs = compose(1 << A.converse[xa_i], one & ~compose(xa, ya))
            if lhs & ya:
                fails.append(("ra10", {"x": xa, "y": ya}))
                break
        else:
            continue
        break

    return fails


def ref_ra4_identity_path(A: AtomStructure) -> Optional[dict[str, int]]:
    one = A.full
    for e in iter_bits(A.identity):
        u = 1 << e
        lhs = ref_compose(A, ref_compose(A, u, one), one)
        if lhs != ref_compose(A, u, one):
            return {"x": u}
    return None


def ref_ra4_elements(A: AtomStructure) -> Optional[dict[str, int]]:
    if A.atom_count > ELEMENTS_GUARD:
        raise GuardExceeded("element-mode ra4 check capped at 16 atoms")
    one = A.full
    for xm in range(1 << A.atom_count):
        u = xm & A.identity
        if ref_compose(A, ref_compose(A, u, one), one) != ref_compose(A, u, one):
            return {"x": xm}
    return None


def ref_sa_law(A: AtomStructure) -> Optional[dict[str, int]]:
    one = A.full
    for a in range(A.atom_count):
        xa = 1 << a
        x1 = ref_compose(A, xa, one)
        if ref_compose(A, x1, one) != x1:
            return {"x": xa}
    return None


def ref_associativity(A: AtomStructure) -> Optional[dict[str, int]]:
    n = A.atom_count
    for x in range(n):
        for y in range(n):
            xy = A.comp_atoms[x][y]
            for z in range(n):
                if ref_compose(A, xy, 1 << z) != ref_compose(A, 1 << x, A.comp_atoms[y][z]):
                    return {"x": 1 << x, "y": 1 << y, "z": 1 << z}
    return None


class RefReport(NamedTuple):
    is_wa: bool
    is_sa: bool
    is_ra: bool
    failures: tuple[tuple[str, dict[str, int]], ...]


def ref_classify(A: AtomStructure, ra4_elements: bool = False) -> RefReport:
    fails = ref_ra5_to_ra10(A)
    w4 = ref_ra4_elements(A) if ra4_elements else ref_ra4_identity_path(A)
    fails_wa = fails + [("ra4", w4)] if w4 is not None else fails
    wsa = ref_sa_law(A)
    wra = ref_associativity(A)
    base_ok = not fails
    all_fails = list(fails_wa)
    if wsa is not None:
        all_fails.append(("sa-law", wsa))
    if wra is not None:
        all_fails.append(("associativity", wra))
    return RefReport(
        base_ok and w4 is None, base_ok and wsa is None, base_ok and wra is None, tuple(all_fails)
    )


def verdicts(rep) -> tuple[bool, bool, bool]:
    return rep.is_wa, rep.is_sa, rep.is_ra


def failure_items(rep) -> list[tuple[str, list[tuple[str, int]]]]:
    """The failures with each witness as its item list, so that the
    variables' order counts too."""
    return [(name, list(witness.items())) for name, witness in rep.failures]


def report_text(rep) -> str:
    """The report as the ``repr`` of the eager ``ClassReport`` dataclass
    read when ``GOLDEN_DIGEST`` was recorded."""
    return (
        f"ClassReport(is_wa={rep.is_wa!r}, is_sa={rep.is_sa!r}, is_ra={rep.is_ra!r}, "
        f"failures={rep.failures!r})"
    )


def assert_same_report(A: AtomStructure) -> None:
    got, ref = classify(A), ref_classify(A)
    assert verdicts(got) == verdicts(ref), A
    assert failure_items(got) == failure_items(ref), A
    assert verdicts(got) == verdicts(ref_classify(A, ra4_elements=True)), A


@cache
def exhaustive(n: int) -> tuple[AtomStructure, ...]:
    return tuple(enumerate_structures(n))


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=3), index=st.integers(min_value=0))
def test_matches_reference_on_enumerated(n, index):
    structures = exhaustive(n)
    assert_same_report(structures[index % len(structures)])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=6))
def test_matches_reference_on_sampled(seed, n):
    assert_same_report(sample_structure(n, random.Random(seed)))


@st.composite
def raw_structures(draw):
    """Built directly, so the facts need not be closed and the converse
    need not be an involution or fix the identity atoms."""
    n = draw(st.integers(min_value=1, max_value=5))
    atom = st.integers(min_value=0, max_value=n - 1)
    identity = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    converse = tuple(draw(st.lists(atom, min_size=n, max_size=n)))
    cycles = frozenset(draw(st.lists(st.tuples(atom, atom, atom), max_size=3 * n * n)))
    return AtomStructure(n, identity, converse, cycles)


@settings(max_examples=150, deadline=None)
@given(A=raw_structures())
def test_matches_reference_on_raw(A):
    assert_same_report(A)


def test_classify_above_table_guard():
    n = TABLE_GUARD + 2
    rng = random.Random(12)
    disjoint = validate_atom_structure(n, range(n), {}, [(e, e, e) for e in range(n)])
    rep = classify(disjoint)
    assert rep.is_ra and rep.failures == ()
    for A in (disjoint, sample_structure(n, rng), sample_structure(n, rng)):
        assert_same_report(A)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_compose_and_conv_el_match_iter_bits_definition(seed, n):
    rng = random.Random(seed)
    A = sample_structure(n, rng)
    for _ in range(30):
        x = rng.randrange(1 << n)
        y = rng.randrange(1 << n)
        assert A.compose(x, y) == ref_compose(A, x, y), (x, y)
        assert A.conv_el(x) == ref_conv_el(A, x), x


# sha256 over enumerate_structures(3) of, per structure,
# report_text(classify(A)) + "\n" then
# report_text(ref_classify(A, ra4_elements=True)) + "\n", recorded from
# the reference loops above when ``classify`` still had an element-mode
# ra4 loop.
GOLDEN_DIGEST = "e49dc9cbc0e6d9fb13b13eca86217594c17e1f704744e2e80595b2f6e4482916"


def test_class_reports_golden():
    h = hashlib.sha256()
    for A in exhaustive(3):
        h.update((report_text(classify(A)) + "\n").encode())
        h.update((report_text(ref_classify(A, ra4_elements=True)) + "\n").encode())
    assert h.hexdigest() == GOLDEN_DIGEST


BASE = ("ra6", "ra7", "ra9", "ra10")
GATES = {"is_wa": BASE + ("ra4",), "is_sa": BASE + ("sa-law",), "is_ra": BASE + ("associativity",)}


def test_verdicts_read_off_the_failures_on_every_small_structure():
    structures = [A for n in (1, 2, 3) for A in exhaustive(n)]
    assert len(structures) == 4664
    for A in structures:
        rep = classify(A)
        failed = set(rep.failed_names())
        for verdict, laws in GATES.items():
            assert getattr(rep, verdict) == failed.isdisjoint(laws), (A, verdict, failed)


# Built directly so that it fails all seven classified laws: both atoms
# are identity atoms, the converse maps both to atom 1, and the facts
# are not transform-closed.
ALL_FAIL = AtomStructure(2, 0b11, (1, 1), frozenset({(0, 0, 1), (1, 0, 0), (1, 1, 0)}))


def _raising(rows):
    def law(A):
        raise AssertionError(f"evaluated a row that must not run on {A}")

    return tuple((name, refutes, law) for name, refutes, _ in rows)


def test_classify_stops_at_the_first_failing_base_row(monkeypatch):
    ref = ref_classify(ALL_FAIL)
    assert len(ref.failures) == 7
    laws = core._LAWS
    monkeypatch.setattr(core, "_LAWS", laws[:1] + _raising(laws[1:]))
    rep = classify(ALL_FAIL)
    assert verdicts(rep) == (False, False, False)
    # ra6 was evaluated for the verdicts and is not evaluated again; the
    # later rows are evaluated on first access to the failures.
    monkeypatch.setattr(core, "_LAWS", _raising(laws[:1]) + laws[1:])
    assert failure_items(rep) == failure_items(ref)
    assert rep.failures is rep.failures
