"""The cylindric checks against sampled, uncached references.

The checks decide every singleton-decided axiom over the carrier's
singletons alone.  The references keep the earlier loops, which also ran
over 0, the full set and seeded random subsets, on the plain primitives:
a cylindrification that joins the blocks a mask meets on every call,
with no memo, for ``SuitableStructure.t_star``, the c_k of the complex
algebra, and a ``cyl-meet-exchange`` that walks all
sampled (x, y) pairs.  Cylindrification is additive, so the singletons
decide those axioms: at every seed the checks must give the same names,
verdicts and witnesses as the references, and only the count in the
``frontier exclusions`` note may differ.  Under the plain primitives the
checks must give exactly what they give under the memoised ones.

The set-algebra lines have two references of their own.
``RefRelativizedSetAlgebra`` keeps the relativized algebra as bitmasks
over the sorted reachable triples, one mask per cylindrification block,
and ``ref_check_complex_vs_relativized`` compares images with it mask by
mask.  ``ref_check_on_groups`` decides the same lines on signature
groups of triples (``triple_groups``), each group carrying the end
masks of its three blocks, the cylindrification line by a per-group
lemma.  ``check_complex_vs_relativized`` builds no block: it decides
the Boolean and diagonal lines on end and diagonal signatures and the
cylindrification line by the block and k-step lemmas of the trail walk.
On real universes all three agree exactly over the singletons, the
count of excluded frontier instances included, and the group reference
finds no miss the lemmas rule out.  On corrupted universes, which the
walk never makes, the two references agree exactly, both fail every
line, and the check fails the three lines it decides exactly.
"""
import dataclasses
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import cylindric
from warel.core import CheckResult, classify, iter_bits
from warel.cylindric import (
    check_complex_vs_relativized,
    check_functions,
    check_mgr2,
    check_na3,
)
from warel.enumerate import enumerate_structures
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


def sample_subsets(full, rng, count):
    return [0, full] + [rng.randrange(full + 1) for _ in range(count)]


def ref_first_meet_exchange_failure(S, sampled):
    """The first sampled (k, x, y) with c_k(x . c_k y) != c_k x . c_k y,
    in loop order."""
    c = S.t_star
    for k in COORDS:
        sampled_cyl = [c(k, x) for x in sampled]
        for x, cx in zip(sampled, sampled_cyl):
            for y, cy in zip(sampled, sampled_cyl):
                if c(k, x & cy) != cx & cy:
                    return (k, x, y)
    return None


def _first(instances):
    return next(iter(instances), None)


def ref_check_na3(S, seed=0, samples=64):
    """``check_na3`` with x (and y) over every singleton, then 0, the
    full set and ``samples`` seeded random subsets."""
    c, d, full = S.t_star, S.e_masks, S.full_mask
    singles = [1 << i for i in range(S.size)]
    subsets = singles + sample_subsets(full, random.Random(seed), samples)
    out = [CheckResult("boolean-part", True, "powerset algebra")]
    out.append(CheckResult("cyl-zero", all(c(k, 0) == 0 for k in COORDS)))
    bad = _first((k, x) for k in COORDS for x in subsets if x | c(k, x) != c(k, x))
    out.append(CheckResult("cyl-increasing", bad is None, str(bad or "")))
    bad = _first(
        (k, x, y)
        for k in COORDS
        for x in singles
        for y in singles
        if c(k, x & c(k, y)) != c(k, x) & c(k, y)
    )
    if bad is None:
        bad = ref_first_meet_exchange_failure(S, subsets[len(singles) :])
    out.append(CheckResult("cyl-meet-exchange", bad is None, str(bad or "")))
    out.append(CheckResult("diag-diagonal-full", all(d[k][k] == full for k in COORDS)))
    bad = _first(
        (k, l, m)
        for k in COORDS
        for l in COORDS
        for m in COORDS
        if m not in (k, l) and d[k][l] != c(m, d[k][m] & d[m][l])
    )
    out.append(CheckResult("diag-composition", bad is None, str(bad or "")))
    bad = _first(
        (k, l, x)
        for k, l, _ in permutations(COORDS)
        for x in subsets
        if c(k, d[k][l] & x) & c(k, d[k][l] & full & ~x)
    )
    out.append(CheckResult("diag-rigidity", bad is None, str(bad or "")))
    bad = _first(
        (k, l, x)
        for k, l, m in permutations(COORDS)
        for x in subsets
        if c(l, c(k, x)) & d[l][m] & ~c(k, c(l, x))
    )
    out.append(CheckResult("guarded-commutativity", bad is None, str(bad or "")))
    commutes = all(
        c(k, c(l, x)) == c(l, c(k, x))
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
    subsets = [1 << i for i in range(S.size)] + sample_subsets(
        S.full_mask, random.Random(seed), samples
    )
    side = cylindric._mgr_side
    bad = _first(
        (k, l, m, x)
        for k, l, m in permutations(COORDS)
        for x in subsets
        if side(S, (k, l, m), x) != side(S, (k, m, l), x)
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
    seeded random subsets.  The cylindrification line fails at the first
    inward miss, or outward miss at a triple off the frontier; it counts
    as excluded every frontier triple of ``image(c_k x)`` outside
    ``image(x)``, missed or not."""
    rc = ref_rc_build(uni)
    c, d, full = S.t_star, S.e_masks, S.full_mask
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

    subsets = [1 << i for i in range(S.size)] + sample_subsets(full, rng, samples)
    ok = all(
        image(full & ~x) == rc.full & ~image(x) and image(x | y) == image(x) | image(y)
        for x in subsets
        for y in subsets[: len(COORDS)]
    )
    out.append(CheckResult("boolean-exact", ok))

    bad = next(
        ((k, l) for k in COORDS for l in COORDS if image(d[k][l]) != rc.diag(k, l)),
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
            lhs = image(c(k, x))
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
            excluded += bin(lhs & ~image(x) & frontier_mask).count("1")
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


# ---------------------------------------------------------------------------
# The set-algebra lines decided on signature groups of triples


class Group(NamedTuple):
    """A signature shared by some reachable triples: ``bit`` is
    ``1 << end`` for the carrier element their trails end at (0 for an
    end outside the carrier), ``blocks[k]`` the carrier mask of the ends
    in their k-block (the reachable triples that agree with them off
    coordinate k), ``diag[k][l]`` whether coordinates k and l agree."""

    bit: int
    frontier: bool
    blocks: tuple[int, int, int]
    diag: tuple[tuple[bool, bool, bool], ...]


def triple_groups(S, uni):
    """The reachable triples counted by signature.  One pass ORs each
    triple's end bit into its three blocks, each keyed by the two
    off-k points; a second reads every triple's three block masks.  A
    block of the points x, y is keyed by the int ``x * N + y``, N one
    more than every pid of a triple."""
    triples = uni.triples
    bits = {t: 1 << t for t in range(S.size)}
    N = 1 + max(chain.from_iterable(triples), default=0)
    b0, b1, b2 = {}, {}, {}
    for (a, b, c), info in triples.items():
        bit = bits.get(info.end, 0)
        b0[b * N + c] = b0.get(b * N + c, 0) | bit
        b1[a * N + c] = b1.get(a * N + c, 0) | bit
        b2[a * N + b] = b2.get(a * N + b, 0) | bit
    counts = {}
    for (a, b, c), info in triples.items():
        key = (
            info.end, info.is_frontier(uni.bound), b0[b * N + c], b1[a * N + c], b2[a * N + b],
            a == b, a == c, b == c,
        )
        counts[key] = counts.get(key, 0) + 1
    return {
        Group(bits.get(end, 0), fr, (m0, m1, m2), ((True, d01, d02), (d01, True, d12), (d02, d12, True))): n
        for (end, fr, m0, m1, m2, d01, d02, d12), n in counts.items()
    }


def group_misses(S, groups, k):
    """The carrier masks of the singletons that some group misses at
    coordinate k: inward (in the relativized cylinder of the group's
    k-block, not in the image of the cylinder of its end), and outward
    at a group off the frontier."""
    inward = outward = 0
    for g in groups:
        cg, block = S.t_star(k, g.bit), g.blocks[k]
        inward |= block & ~cg
        if not g.frontier:
            outward |= cg & ~block
    return inward, outward


def ref_check_on_groups(S, uni):
    """The four set-algebra lines decided on ``triple_groups``, exactly
    over the carrier's singletons.  For a singleton x and a triple of
    group g, the triple lies in ``image(c_k x)`` exactly when x lies in
    ``c(k, g.bit)``, and in the relativized c_k(image x) exactly when
    ``g.blocks[k]`` meets x; in ``image(d_kl)`` exactly when g's end lies
    in ``e_masks[k][l]``, and in the relativized d_kl when
    ``g.diag[k][l]``.  The cylindrification line names the first k with
    a miss, then its lowest missed x, inward if some group misses x
    inward; its exclusions are the frontier triples' singletons
    x != {end} inside ``c(k, g.bit)``."""
    c, d = S.t_star, S.e_masks
    groups = triple_groups(S, uni)
    ends = {g.bit for g in groups}
    covered, outside = sum(ends), 0 in ends
    out = [
        CheckResult("orbit-atoms-disjoint-nonempty", covered == S.full_mask and not outside),
        CheckResult("boolean-exact", not outside),
    ]
    bad = _first(
        (k, l) for k in COORDS for l in COORDS
        if any(bool(d[k][l] & g.bit) != g.diag[k][l] for g in groups)
    )
    out.append(CheckResult("diagonal-exact", bad is None, str(bad or "")))
    bad = None
    for k in COORDS:
        inward, outward = group_misses(S, groups, k)
        if missed := inward | outward:
            x = missed & -missed
            bad = ("inward" if inward & x else "outward", k, x)
            break
    excluded = sum(
        cnt * (c(k, g.bit).bit_count() - 1)
        for g, cnt in groups.items() if g.frontier and g.bit for k in COORDS
    )
    out.append(
        CheckResult(
            "cylindrification-nonfrontier",
            bad is None,
            f"frontier exclusions {excluded}" if bad is None else str(bad),
        )
    )
    return tuple(out)


@contextmanager
def reference_primitives(cyl=ref_t_star):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuitableStructure, "t_star", cyl)
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
    """On a universe the walk made, the check gives the sampled
    reference's verdicts and witnesses, and exactly the reference over
    the singletons, 0 and the full set, exclusion count included (0 and
    the full set exclude nothing), which is exactly the group
    reference."""
    got = check_complex_vs_relativized(S, uni)
    with reference_primitives():
        assert_same_verdicts(got, ref_check_complex_vs_relativized(S, uni, seed=seed))
        assert got == ref_check_complex_vs_relativized(S, uni, samples=0) == ref_check_on_groups(S, uni)
    return got


def assert_corrupted_matches_reference(S, bad, seed):
    """On a corrupted universe the two references agree exactly, and
    the check gives the three exactly decided lines of the reference
    (the sampled one's verdicts and witnesses too).  Returns the
    check's lines and the reference's."""
    got = check_complex_vs_relativized(S, bad)
    with reference_primitives():
        want = ref_check_complex_vs_relativized(S, bad, samples=0)
        assert ref_check_on_groups(S, bad) == want
        assert_same_verdicts(got[:3], ref_check_complex_vs_relativized(S, bad, seed=seed)[:3])
    assert got[:3] == want[:3]
    return got, want


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
def universes(a2, pentagon, census):
    out = []
    # census[0] is WA but not SA: its Cm S does not commute; at depth 1
    # each element ends one triple, so a dropped one empties its orbit
    for A, depth in ((a2, 1), (a2, 3), (pentagon, 2), (pentagon, 3), (census[0], 2)):
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
    assert_corrupted_matches_reference(S, corrupted(uni, kind, i, end), seed)


def test_corruptions_fail_every_line(universes):
    # the references fail all four lines; the check fails the three it
    # decides exactly, and holds the cylindrification line by the walk's
    # lemmas, which a corrupted copy does not satisfy
    failed, failed_ref = set(), set()
    for S, uni in universes:
        n = len(uni.triples)
        for kind in CORRUPTIONS:
            for i in range(0, n, max(1, n // 8)):
                for end in (i % S.size, S.size):
                    got, want = assert_corrupted_matches_reference(S, corrupted(uni, kind, i, end), seed=0)
                    failed |= {c.name for c in got if not c.holds}
                    failed_ref |= {c.name for c in want if not c.holds}
    assert failed_ref == set(SETALGEBRA_LINES)
    assert failed == set(SETALGEBRA_LINES[:3])


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
        groups = triple_groups(S, uni)
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


def raw_wa_universes():
    """Every raw WA structure of one to three atoms, relabellings
    included, at depths 1 to 4: 116 universes."""
    raw = [A for n in (1, 2, 3) for A in enumerate_structures(n) if classify(A).is_wa]
    assert len(raw) == 29
    for A in raw:
        S = build_suitable(A)
        for depth in (1, 2, 3, 4):
            yield S, build_universe(S, depth)


def assert_lemmas_hold(S, uni):
    """The group reference finds no inward miss and no outward miss off
    the frontier, the misses the block and k-step lemmas rule out, and
    the check gives exactly its lines."""
    groups = triple_groups(S, uni)
    assert [group_misses(S, groups, k) for k in COORDS] == [(0, 0)] * 3
    assert check_complex_vs_relativized(S, uni) == ref_check_on_groups(S, uni)


def test_lemmas_hold_on_every_raw_wa_structure():
    for S, uni in raw_wa_universes():
        assert_lemmas_hold(S, uni)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lemmas_hold_on_drawn_structures(a2, pentagon, census, past_raw, data):
    # Half the draws take a 4- or 5-atom WA structure, past the raw
    # structures above; a2, pentagon and the census have three atoms or
    # fewer, so the raw scan already holds them.
    drawn = st.one_of(st.sampled_from(past_raw), st.sampled_from([a2, pentagon, *census]))
    A = data.draw(drawn)
    S = build_suitable(A)
    assert_lemmas_hold(S, build_universe(S, data.draw(st.integers(1, 4))))


def test_complex_algebras_share_the_memo(a2):
    # every check reads c_k as S.t_star, so all share one memo per S
    S = build_suitable(a2)
    S.t_star(1, 5)
    assert S._t_star_memo[1] == {5: ref_t_star(S, 1, 5)}
    assert S.t_star(1, 5) == ref_t_star(S, 1, 5)


def lossy_cyl(S, k, x):
    """Cylindrification along coordinate 2 that drops the lowest bit of
    a two-element mask: right on singletons, not additive beyond."""
    out = ref_t_star(S, k, x)
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
            sampled = sample_subsets(S.full_mask, random.Random(seed), 64)
            witness = ref_first_meet_exchange_failure(S, sampled)
        assert witness is not None and witness[2] != sampled[0]
        assert not want.holds and want.detail == str(witness)
        assert got == exact
        k, x, y = witness
        joins = (x, y, x & lossy_cyl(S, k, y))
        assert any(
            lossy_cyl(S, k, m) != _join(lossy_cyl(S, k, 1 << i) for i in iter_bits(m))
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
        masks = st.one_of(st.integers(0, S.size - 1).map(lambda i: 1 << i), st.integers(0, S.full_mask))
        x, y = data.draw(masks), data.draw(masks)
        for k in COORDS:
            assert cyl(S, k, 0) == 0
            assert cyl(S, k, x | y) == cyl(S, k, x) | cyl(S, k, y)

    return prop


def test_t_star_is_additive():
    additivity_property(SuitableStructure.t_star)()


def test_lossy_cyl_fails_additivity():
    # agreeing with t_star on singletons is not enough: the property
    # finds the two-element joins that lossy_cyl gets wrong
    with pytest.raises(AssertionError):
        additivity_property(lossy_cyl)()
