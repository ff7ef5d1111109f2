"""The cylindric checks against uncached references.

The references are the plain forms of the primitives: a cylindrification
that joins the blocks a mask meets on every call, with no memo, for both
``SuitableStructure.t_star`` and ``ComplexAlgebra.cyl``; relativized
cylindrifications that regroup the triples by their off-k coordinates on
every call; diagonals recomputed per call; and the sampled half of
``cyl-meet-exchange`` walking all sampled (x, y) pairs.  Under them the
checks must give the same results, witnesses and messages as under the
memoised primitives.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import cylindric
from warel.cylindric import (
    ComplexAlgebra,
    RelativizedSetAlgebra,
    check_complex_vs_relativized,
    check_functions,
    check_mgr2,
    check_na3,
)
from warel.enumerate import summarize
from warel.suitable import COORDS, SuitableStructure, build_suitable, check_suitable
from warel.trails import build_universe

SEEDS = (0, 1, 2, 3)


def ref_t_star(S, k, mask):
    out = 0
    for block in S.blocks[k].values():
        if mask & block:
            out |= block
    return out


def ref_cyl(cm, k, x):
    acc = 0
    for block in sorted(set(cm.S.blocks[k].values())):
        if x & block:
            acc |= block
    return acc


def ref_rc_cyl(rc, k, x):
    blocks = {}
    for i, trip in enumerate(rc.triples):
        key = tuple(trip[c] for c in COORDS if c != k)
        blocks[key] = blocks.get(key, 0) | (1 << i)
    acc = 0
    for block in blocks.values():
        if x & block:
            acc |= block
    return acc


def ref_rc_diag(rc, k, l):
    acc = 0
    for i, trip in enumerate(rc.triples):
        if trip[k] == trip[l]:
            acc |= 1 << i
    return acc


def ref_meet_exchange_failures(cm, sampled):
    """Every sampled (k, x, y) with c_k(x . c_k y) != c_k x . c_k y, in
    loop order."""
    sampled_cyl = [[cm.cyl(k, x) for x in sampled] for k in COORDS]
    return [
        (k, x, y)
        for k in COORDS
        for x, cx in zip(sampled, sampled_cyl[k])
        for y, cy in zip(sampled, sampled_cyl[k])
        if cm.cyl(k, x & cy) != cx & cy
    ]


def ref_first_meet_exchange_failure(cm, sampled):
    return next(iter(ref_meet_exchange_failures(cm, sampled)), None)


@contextmanager
def reference_primitives(cyl=ref_cyl):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuitableStructure, "t_star", ref_t_star)
        mp.setattr(ComplexAlgebra, "cyl", cyl)
        mp.setattr(RelativizedSetAlgebra, "cyl", ref_rc_cyl)
        mp.setattr(RelativizedSetAlgebra, "diag", ref_rc_diag)
        mp.setattr(cylindric, "_first_meet_exchange_failure", ref_first_meet_exchange_failure)
        yield


def carrier_checks(S, seed):
    out = check_suitable(S) + check_na3(S, seed=seed) + check_mgr2(S, seed=seed)
    if S.algebra is not None:
        out += check_functions(S)
    return out


def assert_matches_reference(A, seed, depth=None):
    S = build_suitable(A)
    got = carrier_checks(S, seed)
    with reference_primitives():
        want = carrier_checks(build_suitable(A), seed)
    assert got == want
    if depth is not None:
        uni = build_universe(S, depth)
        got = check_complex_vs_relativized(S, uni, seed=seed)
        with reference_primitives():
            want = check_complex_vs_relativized(S, uni, seed=seed)
        assert got == want


@pytest.fixture(scope="module")
def census():
    return summarize(3, mod_iso=True)[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_small_inputs_match_reference(a1, a2, pentagon, two_identities, seed):
    for A in (a1, a2, pentagon, two_identities):
        assert_matches_reference(A, seed, depth=3)


@pytest.mark.parametrize("seed", SEEDS)
def test_census_matches_reference(census, seed):
    assert len(census) == 17
    for A in census:
        assert_matches_reference(A, seed, depth=2)


@st.composite
def hand_built(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    full = (1 << n) - 1
    keys = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    tkey = tuple(tuple(draw(keys)) for _ in COORDS)
    e_masks = tuple(
        tuple(draw(st.integers(min_value=0, max_value=full)) for _ in COORDS) for _ in COORDS
    )
    return SuitableStructure(tuple((i, i, i) for i in range(n)), tkey, e_masks)


@settings(max_examples=80, deadline=None)
@given(S=hand_built(), seed=st.sampled_from(SEEDS))
def test_hand_built_match_reference(S, seed):
    got = carrier_checks(S, seed)
    with reference_primitives():
        fresh = SuitableStructure(S.elements, S.tkey, S.e_masks)
        want = carrier_checks(fresh, seed)
    assert got == want


def test_t_star_matches_uncached_join(a2, pentagon):
    S = build_suitable(a2)
    for k in COORDS:
        for mask in range(S.full_mask + 1):
            assert S.t_star(k, mask) == ref_t_star(S, k, mask)
            # a second call reads the memo
            assert S.t_star(k, mask) == ref_t_star(S, k, mask)
    S = build_suitable(pentagon)
    rng = random.Random(7)
    for _ in range(300):
        k, mask = rng.choice(COORDS), rng.randrange(S.full_mask + 1)
        assert S.t_star(k, mask) == ref_t_star(S, k, mask)


def test_complex_algebras_share_the_memo(a2):
    S = build_suitable(a2)
    ComplexAlgebra(S).cyl(1, 5)
    assert S._t_star_memo[1] == {5: ref_t_star(S, 1, 5)}
    assert ComplexAlgebra(S).cyl(1, 5) == ref_t_star(S, 1, 5)


def lossy_cyl(cm, k, x):
    """Cylindrification along coordinate 2 that drops the lowest bit of
    a two-element mask: right on singletons, not additive beyond."""
    out = ref_cyl(cm, k, x)
    if k == 2 and bin(x).count("1") == 2:
        out &= ~(x & -x)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_non_additive_cyl_names_the_reference_witness(pentagon, census, seed):
    for A in (pentagon, census[0]):
        S = build_suitable(A)
        with reference_primitives(cyl=lossy_cyl):
            want = check_na3(S, seed=seed)
            cm = ComplexAlgebra(S)
            sampled = cylindric._sample_subsets(cm.full, random.Random(seed), 64)
            failures = ref_meet_exchange_failures(cm, sampled)
        # several instances fail, the first not at the first sampled y
        assert len(failures) >= 2 and failures[0][2] != sampled[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ComplexAlgebra, "cyl", lossy_cyl)
            got = check_na3(S, seed=seed)
        assert got == want
        meet = next(c for c in got if c.name == "cyl-meet-exchange")
        assert not meet.holds and meet.detail == str(failures[0])
