"""The cylindric checks against sampled, uncached references.

The checks range every singleton-decided axiom over the carrier's
singletons alone.  The references keep the earlier loops, which also ran
over 0, the full set and seeded random subsets, on the plain primitives:
a cylindrification that joins the blocks a mask meets on every call,
with no memo, for both ``SuitableStructure.t_star`` and
``ComplexAlgebra.cyl``, and a ``cyl-meet-exchange`` that walks all
sampled (x, y) pairs.  Cylindrification is additive, so the singletons
decide those axioms: at every seed the checks must give the same names,
verdicts and witnesses as the references, and only the count in the
``frontier exclusions`` note may differ.  Under the plain primitives the
checks must give exactly what they give under the memoised ones.

The set-algebra lines have a reference of their own:
``RefRelativizedSetAlgebra`` keeps the relativized algebra as bitmasks
over the sorted reachable triples, one mask per cylindrification block,
and ``ref_check_complex_vs_relativized`` compares images with it mask by
mask.  ``check_complex_vs_relativized`` decides the same lines on
per-triple signatures; the two must agree on real universes and on
corrupted ones.
"""

import dataclasses
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import cylindric
from warel.core import CheckResult, iter_bits
from warel.cylindric import (
    ComplexAlgebra,
    check_complex_vs_relativized,
    check_functions,
    check_mgr2,
    check_na3,
)
from warel.enumerate import summarize
from warel.suitable import COORDS, SuitableStructure, build_suitable, check_suitable
from warel.trails import BoundedUniverse, TripleInfo, build_universe

from test_trails_reference import triples_by_end

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


def sample_subsets(full, rng, count):
    return [0, full] + [rng.randrange(full + 1) for _ in range(count)]


def ref_first_meet_exchange_failure(cm, sampled):
    """The first sampled (k, x, y) with c_k(x . c_k y) != c_k x . c_k y,
    in loop order."""
    for k in COORDS:
        sampled_cyl = [cm.cyl(k, x) for x in sampled]
        for x, cx in zip(sampled, sampled_cyl):
            for y, cy in zip(sampled, sampled_cyl):
                if cm.cyl(k, x & cy) != cx & cy:
                    return (k, x, y)
    return None


def _first(instances):
    return next(iter(instances), None)


def ref_check_na3(S, seed=0, samples=64):
    """``check_na3`` with x (and y) over every singleton, then 0, the
    full set and ``samples`` seeded random subsets."""
    cm = ComplexAlgebra(S)
    singles = [1 << i for i in range(S.size)]
    subsets = singles + sample_subsets(cm.full, random.Random(seed), samples)
    out = [CheckResult("boolean-part", True, "powerset algebra")]
    out.append(CheckResult("cyl-zero", all(cm.cyl(k, 0) == 0 for k in COORDS)))
    bad = _first((k, x) for k in COORDS for x in subsets if x | cm.cyl(k, x) != cm.cyl(k, x))
    out.append(CheckResult("cyl-increasing", bad is None, str(bad or "")))
    bad = _first(
        (k, x, y)
        for k in COORDS
        for x in singles
        for y in singles
        if cm.cyl(k, x & cm.cyl(k, y)) != cm.cyl(k, x) & cm.cyl(k, y)
    )
    if bad is None:
        bad = ref_first_meet_exchange_failure(cm, subsets[len(singles) :])
    out.append(CheckResult("cyl-meet-exchange", bad is None, str(bad or "")))
    out.append(CheckResult("diag-diagonal-full", all(cm.diag(k, k) == cm.full for k in COORDS)))
    bad = _first(
        (k, l, m)
        for k in COORDS
        for l in COORDS
        for m in COORDS
        if m not in (k, l) and cm.diag(k, l) != cm.cyl(m, cm.diag(k, m) & cm.diag(m, l))
    )
    out.append(CheckResult("diag-composition", bad is None, str(bad or "")))
    bad = _first(
        (k, l, x)
        for k, l, _ in permutations(COORDS)
        for x in subsets
        if cm.cyl(k, cm.diag(k, l) & x) & cm.cyl(k, cm.diag(k, l) & cm.full & ~x)
    )
    out.append(CheckResult("diag-rigidity", bad is None, str(bad or "")))
    bad = _first(
        (k, l, x)
        for k, l, m in permutations(COORDS)
        for x in subsets
        if cm.cyl(l, cm.cyl(k, x)) & cm.diag(l, m) & ~cm.cyl(k, cm.cyl(l, x))
    )
    out.append(CheckResult("guarded-commutativity", bad is None, str(bad or "")))
    commutes = all(
        cm.cyl(k, cm.cyl(l, x)) == cm.cyl(l, cm.cyl(k, x))
        for k in COORDS
        for l in COORDS
        for x in subsets
    )
    out.append(
        CheckResult(
            "full-commutativity-verdict", True, "commutes" if commutes else "does not commute"
        )
    )
    return tuple(out)


def ref_check_mgr2(S, seed=0, samples=64):
    """``check_mgr2`` with x over every singleton, then 0, the full set
    and ``samples`` seeded random subsets; the other lines are exact and
    taken from the check."""
    cm = ComplexAlgebra(S)
    subsets = [1 << i for i in range(S.size)] + sample_subsets(
        cm.full, random.Random(seed), samples
    )
    side = cylindric._mgr_side
    bad = _first(
        (k, l, m, x)
        for k, l, m in permutations(COORDS)
        for x in subsets
        if side(cm, (k, l, m), x) != side(cm, (k, m, l), x)
    )
    return (CheckResult("mgr2", bad is None, str(bad or "")),) + check_mgr2(S)[1:]


# ---------------------------------------------------------------------------
# The relativized set algebra as bitmasks over the reachable triples


@dataclass
class RefRelativizedSetAlgebra:
    """The algebra of subsets of the reachable triple set, with
    relativized cylindrifications and diagonal constants."""

    universe: BoundedUniverse
    triples: tuple[tuple[int, int, int], ...]

    @cached_property
    def index(self):
        return {t: i for i, t in enumerate(self.triples)}

    @cached_property
    def full(self):
        return (1 << len(self.triples)) - 1

    @cached_property
    def orbits(self):
        return triples_by_end(self.universe)

    @cached_property
    def cyl_blocks(self):
        # for coordinate k, group triples by the two off-k coordinates
        out = ({}, {}, {})
        d0, d1, d2 = out
        for i, (a, b, c) in enumerate(self.triples):
            bit = 1 << i
            d0[b, c] = d0.get((b, c), 0) | bit
            d1[a, c] = d1.get((a, c), 0) | bit
            d2[a, b] = d2.get((a, b), 0) | bit
        return out

    def cyl(self, k, x):
        acc = 0
        for block in self.cyl_blocks[k].values():
            if x & block:
                acc |= block
        return acc

    def diag(self, k, l):
        acc = 0
        for i, trip in enumerate(self.triples):
            if trip[k] == trip[l]:
                acc |= 1 << i
        return acc

    def atom_mask(self, end):
        acc = 0
        for trip in self.orbits.get(end, ()):
            acc |= 1 << self.index[trip]
        return acc

    def orbit_cyl(self, k, end):
        """``cyl(k, atom_mask(end))``, read from the blocks of the
        orbit's own triples."""
        blocks = self.cyl_blocks[k]
        i, j = (c for c in COORDS if c != k)
        acc = 0
        for trip in self.orbits.get(end, ()):
            acc |= blocks[trip[i], trip[j]]
        return acc


def ref_rc_build(uni):
    return RefRelativizedSetAlgebra(uni, tuple(sorted(uni.triples)))


def ref_check_complex_vs_relativized(S, uni, seed=0, samples=32):
    """The four set-algebra lines, decided on masks over the triples,
    with x over every singleton, then 0, the full set and ``samples``
    seeded random subsets."""
    rc = ref_rc_build(uni)
    cm = ComplexAlgebra(S)
    rng = random.Random(seed)
    out = []

    atom_masks = [rc.atom_mask(t) for t in range(S.size)]
    nonempty = all(m for m in atom_masks)
    disjoint = True
    acc = 0
    for m in atom_masks:
        if acc & m:
            disjoint = False
        acc |= m
    out.append(
        CheckResult(
            "orbit-atoms-disjoint-nonempty", nonempty and disjoint and acc == rc.full
        )
    )

    def image(xmask):
        m = 0
        for i in iter_bits(xmask):
            m |= atom_masks[i]
        return m

    subsets = [1 << i for i in range(S.size)] + sample_subsets(cm.full, rng, samples)
    ok = all(
        image(cm.full & ~x) == rc.full & ~image(x) and image(x | y) == image(x) | image(y)
        for x in subsets
        for y in subsets[: len(COORDS)]
    )
    out.append(CheckResult("boolean-exact", ok))

    bad = next(
        ((k, l) for k in COORDS for l in COORDS if image(cm.diag(k, l)) != rc.diag(k, l)),
        None,
    )
    out.append(CheckResult("diagonal-exact", bad is None, str(bad or "")))

    frontier_mask = 0
    for trip in uni.frontier_triples():
        frontier_mask |= 1 << rc.index[trip]
    # rc.cyl is a join over blocks, hence additive: rc.cyl(k, image(x))
    # is the join of the cylindrified orbit masks of the bits of x
    atom_cyl = [[rc.orbit_cyl(k, t) for t in range(S.size)] for k in COORDS]
    bad = None
    excluded = 0
    for k in COORDS:
        for x in subsets:
            lhs = image(cm.cyl(k, x))
            rhs = 0
            for i in iter_bits(x):
                rhs |= atom_cyl[k][i]
            if rhs & ~lhs:
                bad = ("inward", k, x)
                break
            missing = lhs & ~rhs
            if missing & ~frontier_mask:
                bad = ("outward", k, x)
                break
            excluded += bin(missing & frontier_mask).count("1")
        if bad:
            break
    out.append(
        CheckResult(
            "cylindrification-nonfrontier",
            bad is None,
            f"frontier exclusions {excluded}" if bad is None else str(bad),
        )
    )
    return tuple(out)


@contextmanager
def reference_primitives(cyl=ref_cyl):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuitableStructure, "t_star", ref_t_star)
        mp.setattr(ComplexAlgebra, "cyl", cyl)
        yield


def carrier_checks(S):
    out = check_suitable(S) + check_na3(S) + check_mgr2(S)
    if S.algebra is not None:
        out += check_functions(S)
    return out


def ref_carrier_checks(S, seed):
    out = check_suitable(S) + ref_check_na3(S, seed) + ref_check_mgr2(S, seed)
    if S.algebra is not None:
        out += check_functions(S)
    return out


def assert_same_verdicts(got, want):
    """Same names, verdicts and witnesses; a passing
    ``cylindrification-nonfrontier`` may count other exclusions."""
    assert [(c.name, c.holds) for c in got] == [(c.name, c.holds) for c in want]
    for c, w in zip(got, want):
        if c.name == "cylindrification-nonfrontier" and c.holds:
            assert c.detail.startswith("frontier exclusions ")
            assert w.detail.startswith("frontier exclusions ")
        else:
            assert c.detail == w.detail, c.name


def assert_matches_reference(A, seed, depth=None):
    S = build_suitable(A)
    got = carrier_checks(S)
    with reference_primitives():
        assert carrier_checks(build_suitable(A)) == got
        assert_same_verdicts(got, ref_carrier_checks(build_suitable(A), seed))
    if depth is not None:
        assert_setalgebra_matches_reference(S, build_universe(S, depth), seed)


def assert_setalgebra_matches_reference(S, uni, seed):
    """The check gives the sampled reference's verdicts and witnesses,
    and exactly the reference over the singletons, 0 and the full set,
    exclusion count included (0 and the full set exclude nothing)."""
    got = check_complex_vs_relativized(S, uni)
    with reference_primitives():
        assert_same_verdicts(got, ref_check_complex_vs_relativized(S, uni, seed=seed))
        assert got == ref_check_complex_vs_relativized(S, uni, samples=0)
    return got


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


def test_census_depth3_matches_reference(census):
    for A in census:
        S = build_suitable(A)
        assert_setalgebra_matches_reference(S, build_universe(S, 3), seed=0)


def test_pentagon_depth4_matches_reference(pentagon):
    S = build_suitable(pentagon)
    got = assert_setalgebra_matches_reference(S, build_universe(S, 4), seed=0)
    assert all(c.holds for c in got), got


SETALGEBRA_LINES = (
    "orbit-atoms-disjoint-nonempty",
    "boolean-exact",
    "diagonal-exact",
    "cylindrification-nonfrontier",
)
CORRUPTIONS = ("end", "drop", "min_length")


def corrupted(uni, kind, i, end):
    """A copy of ``uni`` with its i-th triple given the end ``end``,
    dropped, or with its shortest witness moved across the bound."""
    triples = dict(uni.triples)
    trip, info = list(triples.items())[i]
    if kind == "end":
        triples[trip] = TripleInfo(end, info.min_length)
    elif kind == "drop":
        del triples[trip]
    else:
        moved = uni.bound if info.min_length < uni.bound else uni.bound - 1
        triples[trip] = TripleInfo(info.end, moved)
    return dataclasses.replace(uni, triples=triples)


@pytest.fixture(scope="module")
def universes(a2, pentagon):
    out = []
    for A, depth in ((a2, 3), (pentagon, 2), (pentagon, 3)):
        S = build_suitable(A)
        out.append((S, build_universe(S, depth)))
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_universes_match_reference(universes, data):
    S, uni = data.draw(st.sampled_from(universes))
    kind = data.draw(st.sampled_from(CORRUPTIONS))
    i = data.draw(st.integers(0, len(uni.triples) - 1))
    # an end of S.size lies outside the carrier
    end = data.draw(st.integers(0, S.size))
    seed = data.draw(st.sampled_from(SEEDS))
    assert_setalgebra_matches_reference(S, corrupted(uni, kind, i, end), seed)


def test_corruptions_fail_every_line(universes):
    failed = set()
    for S, uni in universes:
        n = len(uni.triples)
        for kind in CORRUPTIONS:
            for i in range(0, n, max(1, n // 8)):
                for end in (i % S.size, S.size):
                    got = assert_setalgebra_matches_reference(
                        S, corrupted(uni, kind, i, end), seed=0
                    )
                    failed |= {c.name for c in got if not c.holds}
    assert failed == set(SETALGEBRA_LINES)


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
    got = carrier_checks(S)
    with reference_primitives():
        fresh = lambda: SuitableStructure(S.elements, S.tkey, S.e_masks)
        assert carrier_checks(fresh()) == got
        assert_same_verdicts(got, ref_carrier_checks(fresh(), seed))


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


def test_orbit_cyl_matches_reference(a2, pentagon, census):
    # the relativized cylinder of every orbit, counted on the signature
    # groups by block end masks, is the reference's mask, frontier and all
    for A, depth in ((a2, 3), (pentagon, 3), *((B, 2) for B in census)):
        S = build_suitable(A)
        uni = build_universe(S, depth)
        rc = ref_rc_build(uni)
        groups = cylindric._triple_groups(S, uni)
        frontier = {rc.index[t] for t in uni.frontier_triples()}
        for k in COORDS:
            for t in range(S.size):
                want = rc.orbit_cyl(k, t)
                assert want == rc.cyl(k, rc.atom_mask(t))
                bits = list(iter_bits(want))
                got = [0, 0]
                for g, cnt in groups.items():
                    if g.blocks[k] >> t & 1:
                        got[g.frontier] += cnt
                assert got == [len(bits) - len(frontier & set(bits)), len(frontier & set(bits))]


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
    # under lossy_cyl the sampled reference names a meet-exchange witness
    # at every seed, while check_na3, which decides the line by its lemma,
    # gives the line the additive cylindrification gives: the witness is a
    # join lossy_cyl gets wrong, which is why the lemma and the
    # singleton-decided checks rest on the block joins of t_star
    for A in (pentagon, census[0]):
        S = build_suitable(A)
        line = "cyl-meet-exchange"
        exact = next(c for c in check_na3(S) if c.name == line)
        with reference_primitives(cyl=lossy_cyl):
            want = next(c for c in ref_check_na3(S, seed=seed) if c.name == line)
            got = next(c for c in check_na3(S) if c.name == line)
            cm = ComplexAlgebra(S)
            sampled = sample_subsets(cm.full, random.Random(seed), 64)
            witness = ref_first_meet_exchange_failure(cm, sampled)
        assert witness is not None and witness[2] != sampled[0]
        assert not want.holds and want.detail == str(witness)
        assert got == exact
        k, x, y = witness
        joins = (x, y, x & lossy_cyl(cm, k, y))
        assert any(
            lossy_cyl(cm, k, m) != _join(lossy_cyl(cm, k, 1 << i) for i in iter_bits(m))
            for m in joins
        )


def _join(masks):
    acc = 0
    for m in masks:
        acc |= m
    return acc


def additivity_property(cyl):
    """The property the singleton-decided checks rest on: ``cyl`` maps 0
    to 0 and joins to joins, on hand-built structures.  Half the drawn
    masks are singletons, whose joins are where a cylindrification that
    is right on singletons alone goes wrong."""

    @settings(max_examples=200, deadline=None)
    @given(S=hand_built(), data=st.data())
    def prop(S, data):
        cm = ComplexAlgebra(S)
        masks = st.one_of(st.integers(0, S.size - 1).map(lambda i: 1 << i), st.integers(0, cm.full))
        x, y = data.draw(masks), data.draw(masks)
        for k in COORDS:
            assert cyl(cm, k, 0) == 0
            assert cyl(cm, k, x | y) == cyl(cm, k, x) | cyl(cm, k, y)

    return prop


def test_t_star_is_additive():
    additivity_property(ComplexAlgebra.cyl)()


def test_lossy_cyl_fails_additivity():
    # agreeing with t_star on singletons is not enough: the property
    # finds the two-element joins that lossy_cyl gets wrong
    with pytest.raises(AssertionError):
        additivity_property(lossy_cyl)()
