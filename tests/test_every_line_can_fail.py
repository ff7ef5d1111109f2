"""Every carrier line can fail, or is named structural.

The carrier lines are the ``suitable.``, ``cylindric.`` and ``reduct.``
lines: the checks ``represent`` runs on the suitable structure and
``enumerate --pipeline`` requires (``cli._carrier_checks``).  Each must
fail on some fixture here, a hand-built structure or a corrupted built
one, unless it is in ``STRUCTURAL``.  A structural line holds on every
structure, for the reason given on its entry, and must never fail: it
tells nothing, and the list is what a re-pinned report can drop.
"""

import random

from warel import reduct
from warel.cli import _carrier_checks
from warel.cylindric import check_mgr2, check_na3
from warel.enumerate import summarize
from warel.suitable import COORDS, SuitableStructure, build_suitable, check_suitable

from test_reduct_reference import _corrupt

STRUCTURAL = (
    # axiom (i): tkey and e_masks give every element a key and a membership
    "components-well-typed",
    # equality of keys is reflexive and symmetric
    "coordinate-equivalences",
    # the carrier's powerset is a Boolean algebra
    "boolean-part",
    # t_star(k, 0) is an empty join
    "cyl-zero",
    # every element lies in its own k-block, so x <= t_star(k, x)
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


def corrupted_structures(a1, a2, pentagon, two_identities):
    """The 504 corruptions of ``test_reduct_reference``, each with its
    source algebra."""
    rng = random.Random(18)
    for A in (a1, a2, pentagon, two_identities, *summarize(3, mod_iso=True)[1]):
        S = build_suitable(A)
        for _ in range(24):
            yield A, _corrupt(A, S, rng)


def test_every_carrier_line_can_fail(a1, a2, pentagon, two_identities):
    S2 = build_suitable(a2)
    lines = {c.name for _, results in _carrier_checks(a2, S2) for c in results}
    assert set(STRUCTURAL) <= lines
    failed = set()
    for S in hand_built_structures():
        # no source algebra: the checks that need one are left out
        results = (*check_suitable(S), *check_na3(S), *check_mgr2(S), *reduct.check_reduct_closure(S))
        failed |= {c.name for c in results if not c.holds}
    corruptions = 0
    for A, S in corrupted_structures(a1, a2, pentagon, two_identities):
        corruptions += 1
        # every check decides every corruption, an element whose last
        # coordinate moved past the last atom included
        failed |= {c.name for _, results in _carrier_checks(A, S) for c in results if not c.holds}
    assert corruptions == 504
    assert failed & set(STRUCTURAL) == set()
    assert failed == lines - set(STRUCTURAL)
