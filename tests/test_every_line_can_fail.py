"""Every carrier line can fail, or is named structural.

The carrier lines are the ``suitable.``, ``cylindric.`` and ``reduct.``
lines: the checks ``represent`` runs on the suitable structure and
``enumerate --pipeline`` requires (``cli._carrier_checks``).  Each must
fail on some fixture here, a hand-built structure, a malformed one or a
corrupted built one, unless it is in ``STRUCTURAL``.  A structural line
holds on every structure that passes axiom (i), for the reason given on
its entry: it tells nothing, and the list is what a re-pinned report can
drop.  The checks decide most structural lines by their lemma and run no
loop for them, so the reference loops kept in the tests
(``ref_check_suitable``, ``ref_check_na3``, ``ref_check_reduct_closure``)
run over the same fixtures, and must never fail a structural line.
"""

import random
import re
from dataclasses import replace

import pytest

from warel import reduct
from warel.cli import _carrier_checks
from warel.cylindric import check_mgr2, check_na3
from warel.suitable import COORDS, SuitableStructure, build_suitable, check_suitable

from test_cylindric_reference import ref_check_na3
from test_reduct_reference import _corrupt, ref_check_reduct_closure
from test_suitable import ref_check_suitable

STRUCTURAL = (
    # by axiom (i) each element has one k-key, and equality of keys is
    # an equivalence
    "coordinate-equivalences",
    # the carrier's powerset is a Boolean algebra
    "boolean-part",
    # t_star(k, 0) is an empty join
    "cyl-zero",
    # by axiom (i) every element lies in its own k-block, so x <= t_star(k, x)
    "cyl-increasing",
    # c_k y is a union of k-blocks, so x . c_k y meets exactly the
    # k-blocks that x meets inside c_k y, and its closure is c_k x . c_k y
    "cyl-meet-exchange",
    # a verdict, reported as holding whether or not c_k and c_l commute
    "full-commutativity-verdict",
    # the ternary merry-go-round needs four indices: vacuous in dimension 3
    "mgr3",
    # 2-blocks are disjoint, so a join of 2-blocks is its own c_2
    "carrier-two-dimensional",
    # converse and composition end in c_2, whose values are joins of 2-blocks
    "operations-closed",
)


def hand_built_structures(count=300, seed=3):
    """Structures drawn as ``test_cylindric_reference.hand_built`` draws
    them: 1 to 8 elements, keys 0 to 3, any distinguished subsets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        full = (1 << n) - 1
        tkey = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in COORDS)
        e_masks = tuple(tuple(rng.randint(0, full) for _ in COORDS) for _ in COORDS)
        yield SuitableStructure(tuple((i, i, i) for i in range(n)), tkey, e_masks)


def malformed_structures():
    """Three elements breaking axiom (i): element 2 has no 1-key, or the
    distinguished subset (0, 1) holds a fourth element."""
    elements = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    full = ((7, 7, 7),) * 3
    yield SuitableStructure(elements, ((0, 1, 2), (0, 1), (0, 0, 1)), full)
    yield SuitableStructure(elements, ((0, 1, 2),) * 3, ((7, 15, 7), (7, 7, 7), (7, 7, 7)))


def misshapen_shapes():
    """The arguments of two structures of a shape that
    ``SuitableStructure`` refuses: two ``tkey`` rows, or a 3x2
    ``e_masks``."""
    yield ((0, 0, 0), (1, 1, 1)), ((0, 1), (0, 1)), ((3, 3, 3),) * 3
    yield ((0, 0, 0), (1, 1, 1), (2, 2, 2)), ((0, 1, 2),) * 3, ((7, 7),) * 3


def corrupted_structures(a1, a2, pentagon, two_identities, census):
    """The 504 corruptions of ``test_reduct_reference``, each with its
    source algebra."""
    rng = random.Random(18)
    for A in (a1, a2, pentagon, two_identities, *census):
        S = build_suitable(A)
        for _ in range(24):
            yield A, _corrupt(A, S, rng)


def reference_results(S):
    """The reference loops' lines.  ``ref_check_na3`` ranges over the
    singletons (the range of the loops the lemmas replaced), 0 and the
    full set, with no seeded samples: ``test_cylindric_reference``
    compares the sampled form."""
    return (*ref_check_suitable(S), *ref_check_na3(S, samples=0), *ref_check_reduct_closure(S))


def test_every_carrier_line_can_fail(a1, a2, pentagon, two_identities, census):
    S2 = build_suitable(a2)
    lines = {c.name for _, results in _carrier_checks(a2, S2) for c in results}
    assert set(STRUCTURAL) <= lines
    failed = set()
    ref_failed = set()
    for S in (*hand_built_structures(), *malformed_structures()):
        # no source algebra: the checks that need one are left out
        results = (*check_suitable(S), *check_na3(S), *check_mgr2(S), *reduct.check_reduct_closure(S))
        failed |= {c.name for c in results if not c.holds}
        if results[0].holds:  # the references assume axiom (i)
            ref_failed |= {c.name for c in reference_results(S) if not c.holds}
    corruptions = 0
    for A, S in corrupted_structures(a1, a2, pentagon, two_identities, census):
        corruptions += 1
        # every check decides every corruption, an element whose last
        # coordinate moved past the last atom included
        failed |= {c.name for _, results in _carrier_checks(A, S) for c in results if not c.holds}
        ref_failed |= {c.name for c in reference_results(S) if not c.holds}
    assert corruptions == 504
    assert failed & set(STRUCTURAL) == set()
    assert ref_failed & set(STRUCTURAL) == set()
    assert failed == lines - set(STRUCTURAL)


def test_malformed_structures_fail_axiom_i():
    # the cyl-increasing lemma needs every element in its own k-block:
    # where element 2 has no 1-key, the reference loop fails the line,
    # and axiom (i) is the line that names the fault
    short, wide = malformed_structures()
    got = {c.name: c for c in check_suitable(short) + check_na3(short)}
    assert not got["components-well-typed"].holds
    assert got["components-well-typed"].detail == "tkey rows hold [3, 2, 3] keys for 3 elements"
    assert got["cyl-increasing"].holds
    ref = {c.name: c for c in ref_check_na3(short)}
    assert not ref["cyl-increasing"].holds
    got = check_suitable(wide)[0]
    assert (got.holds, got.detail) == (False, "subset (0, 1) leaves the carrier")


def test_axiom_i_failures_return_every_suitable_line(a1):
    # (ii) holds by its lemma; (iii)-(v) are not decided without (i)
    names = [c.name for c in check_suitable(build_suitable(a1))]
    details = []
    for S in malformed_structures():
        got = check_suitable(S)
        assert [c.name for c in got] == names
        assert got[1].holds
        assert [(c.holds, c.detail) for c in got[2:]] == [(False, "needs axiom (i)")] * 3
        details.append(got[0].detail)
    assert details == [
        "tkey rows hold [3, 2, 3] keys for 3 elements",
        "subset (0, 1) leaves the carrier",
    ]


def test_misshapen_structures_are_refused_when_made(pentagon):
    # every check indexes three key rows and a 3x3 e_masks, so no
    # structure of another shape is made: hand-built, or pentagon's built
    # structure with two key rows or two rows of e_masks
    built = build_suitable(pentagon)
    made = [lambda args=args: SuitableStructure(*args) for args in misshapen_shapes()]
    made += [lambda: replace(built, tkey=built.tkey[:2]), lambda: replace(built, e_masks=built.e_masks[:2])]
    shapes = ["2 tkey rows and e_masks rows of lengths [3, 3, 3]", "3 tkey rows and e_masks rows of lengths [2, 2, 2]",
              "2 tkey rows and e_masks rows of lengths [3, 3, 3]", "3 tkey rows and e_masks rows of lengths [3, 3]"]
    for make, shape in zip(made, shapes, strict=True):
        with pytest.raises(ValueError, match=re.escape(f"three tkey rows and a 3x3 e_masks, not {shape}")):
            make()
