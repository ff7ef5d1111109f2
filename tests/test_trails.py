import gc
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import core, reduct
from warel.core import CheckResult, ConsistencyError, GuardExceeded
from warel.cylindric import check_orbit_partition
from warel.suitable import COORDS, SuitableStructure, build_suitable
from warel.trails import TripleInfo, build_universe

from test_suitable import related
from test_trails_reference import (
    Point,
    RefUniverse,
    Trail,
    assert_matches_reference,
    random_trail,
    reduce_random_order,
    reduce_trail,
    repoint,
)

# ---------------------------------------------------------------------------
# The trail calculus's validating constructor, reducedness test, converse,
# concatenation, point lookup and action on points: only these tests use
# them.  ``build_universe`` stores no trails, so the lookups and actions
# run on the reference universe, each after it is checked to match
# ``build_universe`` on the same input and bound.


class InvalidTrail(ValueError):
    pass


def make_trail(
    S: SuitableStructure, nodes: tuple[int, ...], steps: tuple[int, ...], pointer: int
) -> Trail:
    if not nodes:
        raise InvalidTrail("a trail needs at least one element")
    if len(steps) != len(nodes) - 1:
        raise InvalidTrail("need exactly one step between consecutive elements")
    if pointer not in COORDS:
        raise InvalidTrail(f"pointer {pointer} out of range")
    for i, k in enumerate(steps):
        if k not in COORDS:
            raise InvalidTrail(f"step index {k} out of range")
        if nodes[i] == nodes[i + 1]:
            raise InvalidTrail(f"consecutive elements equal at position {i}")
        if not related(S, k, nodes[i], nodes[i + 1]):
            raise InvalidTrail(
                f"elements {nodes[i]} and {nodes[i + 1]} are not {k}-related"
            )
    for i in nodes:
        if not 0 <= i < S.size:
            raise InvalidTrail(f"element index {i} out of range")
    return Trail(tuple(nodes), tuple(steps), pointer)


def is_reduced(S: SuitableStructure, p: Trail) -> bool:
    if len(p) == 1:
        return all(
            p.pointer <= l
            for l in COORDS
            if S.in_e(p.nodes[0], p.pointer, l) or S.in_e(p.nodes[0], l, p.pointer)
        )
    if p.steps[-1] != p.pointer:
        return False
    for l in COORDS:
        member = S.in_e(p.end, p.pointer, l) or S.in_e(p.end, l, p.pointer)
        if member != (p.pointer == l):
            return False
    for i in range(len(p) - 2):
        if p.nodes[i] == p.nodes[i + 2] and p.steps[i] == p.steps[i + 1]:
            return False
    return True


def trail_converse(p: Trail) -> Trail:
    nodes = tuple(reversed(p.nodes))
    steps = tuple(reversed(p.steps))
    return Trail(nodes, steps, p.pointer)


def trail_concat(p: Trail, q: Trail) -> Trail:
    """Defined when p ends where q begins; glues the shared element."""
    if p.end != q.begin:
        raise InvalidTrail("concatenation needs the end of p to begin q")
    return Trail(p.nodes[:-1] + q.nodes, p.steps + q.steps, q.pointer)


def point_of(uni: RefUniverse, p: Trail) -> Point:
    """The point of ``uni`` whose reduced trail is p's reduction."""
    pt = uni.points.get(reduce_trail(uni.S, p))
    if pt is None:
        raise GuardExceeded("trail reduces outside the bounded universe")
    return pt


def apply_lq(uni: RefUniverse, q: Trail, u: Point) -> Point:
    """Act on a point by a trail, within the length budget.

    The trail q moves the class of p to the class of q * p when q ends
    at the beginning of p, to q~ * p when q merely begins there, and
    fixes it otherwise.  The action is partial on a bounded universe:
    the budget |u| + |q| <= bound is enforced, and the inverse action
    by the converse trail undoes it wherever both stay in budget.
    """
    if len(u.trail) + len(q) > uni.bound:
        raise GuardExceeded(
            f"action needs length {len(u.trail) + len(q)} > bound {uni.bound}"
        )
    p = u.trail
    if q.end == p.begin:
        moved = trail_concat(q, p)
    elif q.begin == p.begin:
        moved = trail_concat(trail_converse(q), p)
    else:
        return u
    return point_of(uni, moved)


def test_make_trail_validates(s2):
    eee = s2.index[(0, 0, 0)]
    dde = s2.index[(1, 1, 0)]
    make_trail(s2, (eee, dde), (2,), 0)  # both end in an identity coordinate? no: shared coord 2
    with pytest.raises(InvalidTrail):
        make_trail(s2, (eee, eee), (0,), 0)
    with pytest.raises(InvalidTrail):
        make_trail(s2, (eee, s2.index[(1, 1, 1)]), (0,), 0)


def test_reduce_diversity_fixed(s2):
    ddd = s2.index[(1, 1, 1)]
    for k in (0, 1, 2):
        p = Trail((ddd,), (), k)
        assert reduce_trail(s2, p) == p


def test_reduce_identity_minimizes_pointer(s2):
    eee = s2.index[(0, 0, 0)]
    assert reduce_trail(s2, Trail((eee,), (), 1)) == Trail((eee,), (), 0)
    assert reduce_trail(s2, Trail((eee,), (), 2)) == Trail((eee,), (), 0)


def test_reduce_round_trip(s2):
    ddd = s2.index[(1, 1, 1)]
    dde = s2.index[(1, 1, 0)]
    p = Trail((ddd, dde, ddd), (0, 0), 2)
    assert reduce_trail(s2, p) == reduce_trail(s2, Trail((ddd,), (), 2))


def test_reduce_idempotent_and_shrinking(s2):
    rng = random.Random(5)
    for _ in range(300):
        p = random_trail(s2, rng, 6)
        r = reduce_trail(s2, p)
        assert len(r) <= len(p)
        assert reduce_trail(s2, r) == r
        assert is_reduced(s2, r)
        assert r.begin == p.begin


def test_confluence_random_orders(s2, pentagon):
    structures = [s2, build_suitable(pentagon)]
    rng = random.Random(11)
    for S in structures:
        for _ in range(200):
            p = random_trail(S, rng, 6)
            r = reduce_trail(S, p)
            for _ in range(10):
                assert reduce_random_order(S, p, rng) == r


def test_converse_is_involution_on_length_one(s2):
    ddd = s2.index[(1, 1, 1)]
    p = Trail((ddd,), (), 1)
    assert trail_converse(p) == p


def test_converse_reverses(s2):
    ddd = s2.index[(1, 1, 1)]
    dde = s2.index[(1, 1, 0)]
    p = make_trail(s2, (ddd, dde), (0,), 2)
    q = trail_converse(p)
    assert q.nodes == (dde, ddd)
    assert q.steps == (0,)
    assert q.pointer == 2
    assert trail_converse(q) == p


def test_concat_requires_matching_endpoints(s2):
    ddd = s2.index[(1, 1, 1)]
    dde = s2.index[(1, 1, 0)]
    ded = s2.index[(1, 0, 1)]
    p = make_trail(s2, (ddd, dde), (0,), 1)
    q = make_trail(s2, (dde, ddd), (1,), 0)
    pq = trail_concat(p, q)
    assert pq.nodes == (ddd, dde, ddd)
    assert pq.pointer == 0
    with pytest.raises(InvalidTrail):
        trail_concat(p, make_trail(s2, (ded,), (), 0))


def test_universe_a1(a1):
    S = build_suitable(a1)
    uni = build_universe(S, 1)
    assert len(uni.by_id) == 1
    assert set(uni.triples) == {(0, 0, 0)}


def test_universe_a2_level_one(a2, s2):
    ref = assert_matches_reference(a2, 1)
    ddd = s2.index[(1, 1, 1)]
    pts = {point_of(ref, Trail((ddd,), (), k)).pid for k in (0, 1, 2)}
    assert len(pts) == 3


def test_universe_monotone(s2):
    sizes = [len(build_universe(s2, L).by_id) for L in (1, 2, 3)]
    assert sizes == sorted(sizes)
    trip_counts = [len(build_universe(s2, L).triples) for L in (1, 2, 3)]
    assert trip_counts == sorted(trip_counts)


def test_frontier_is_the_tail_of_the_walk_order(a1, a2, pentagon, census):
    # the walk is breadth first, so the triples new in the layer at the
    # bound, the last one walked, are exactly the frontier, and
    # frontier_ends counts them per end
    for A in (a1, a2, pentagon, *census):
        S = build_suitable(A)
        for depth in (1, 2, 3, 4):
            uni = build_universe(S, depth)
            flags = [info.is_frontier(depth) for info in uni.triples.values()]
            assert flags == sorted(flags)
            ends = Counter(info.end for info in uni.triples.values() if info.is_frontier(depth))
            assert uni.frontier_ends == [ends[t] for t in range(S.size)]
            assert depth > 1 or sum(uni.frontier_ends) == len(uni.triples)
    # a1's one element has no neighbour: the walk ends at length one,
    # below the bound, with no frontier
    assert build_universe(build_suitable(a1), 2).frontier_ends == [0]


def test_universe_retains_no_trail_per_point(pentagon):
    # per point the universe keeps a length, a pointer and its own
    # triple, and the walk's layers are gone when it returns: it retains
    # under 300 bytes a point (about 230, triples and their keys
    # included).  The collection empties the tuple free lists, whose
    # tuples tracemalloc would not count.
    S = build_suitable(pentagon)
    gc.collect()
    tracemalloc.start()
    try:
        uni = build_universe(S, 4)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(uni.lengths) < 300, (retained, len(uni.lengths))


def test_universe_budget(s2, monkeypatch):
    monkeypatch.setattr(core, "SPINE_BUDGET", 10)
    with pytest.raises(GuardExceeded):
        build_universe(s2, 3)


def test_a_triple_reached_from_two_elements_raises():
    # two elements in one block of every coordinate, both in E(0, 1) and
    # E(1, 0), which breaks rigidity (axiom (v)): element 0's base triple
    # (0, 0, 1) repeats pointers 0 and 1, and the spine from element 0 to
    # element 1 by step 0 repoints to 1 and reaches that triple again
    full = 0b11
    S = SuitableStructure(
        ((0, 0, 0), (1, 1, 1)), ((0, 0),) * 3, ((full, full, 0), (full, full, 0), (0, 0, full))
    )
    assert build_universe(S, 1).triples == {
        (0, 0, 1): TripleInfo(0, 1), (2, 2, 3): TripleInfo(1, 1)
    }
    with pytest.raises(ConsistencyError, match="one coordinate triple reached from two carrier elements"):
        build_universe(S, 2)


def test_orbit_partition_holds_and_counts_the_triples(s2, pentagon):
    for S in (s2, build_suitable(pentagon)):
        for L in (2, 3):
            uni = build_universe(S, L)
            want = CheckResult("orbit-partition", True, f"{len(uni.triples)} triples")
            assert check_orbit_partition(uni) == want


def test_apply_lq_identity_case(a2, s2):
    uni = assert_matches_reference(a2, 3)
    ddd = s2.index[(1, 1, 1)]
    dde = s2.index[(1, 1, 0)]
    u = point_of(uni, Trail((ddd,), (), 0))
    q_unrelated = Trail((dde,), (), 0)
    # q neither ends nor begins at the beginning of u's trail
    assert apply_lq(uni, q_unrelated, u) == u


def test_apply_lq_round_trip(a2, s2):
    uni = assert_matches_reference(a2, 4)
    ddd = s2.index[(1, 1, 1)]
    dde = s2.index[(1, 1, 0)]
    q = make_trail(s2, (dde, ddd), (1,), 0)
    for k in (0, 1, 2):
        u = point_of(uni, Trail((ddd,), (), k))
        moved = apply_lq(uni, q, u)
        back = apply_lq(uni, trail_converse(q), moved)
        assert back == u


def test_apply_lq_headroom_error(a2, s2):
    uni = assert_matches_reference(a2, 2)
    ddd = s2.index[(1, 1, 1)]
    dde = s2.index[(1, 1, 0)]
    ded = s2.index[(1, 0, 1)]
    long_q = make_trail(s2, (dde, ddd, ded), (1, 2), 0)
    u = point_of(uni, Trail((ddd,), (), 0))
    with pytest.raises(GuardExceeded):
        apply_lq(uni, long_q, u)


def test_orbit_transitivity_bounded(a2):
    # triples of trails ending at the same element are mutually
    # reachable by in-budget actions
    uni = assert_matches_reference(a2, 3)
    S = uni.S
    # collect short witnessing trails per end
    witnesses: dict[int, list[Trail]] = {}
    layer = [((t,), ()) for t in range(S.size)]
    for _ in range(2):
        nxt = []
        for nodes, steps in layer:
            witnesses.setdefault(nodes[-1], []).append(Trail(nodes, steps, 0))
            for k in (0, 1, 2):
                for j in S.neighbors[k][nodes[-1]]:
                    nxt.append((nodes + (j,), steps + (k,)))
        layer = nxt
    moved = 0
    for end, ws in witnesses.items():
        for px in ws:
            for py in ws:
                q = trail_concat(py, trail_converse(px))
                for k in (0, 1, 2):
                    u = point_of(uni, repoint(px, k))
                    if len(u.trail) + len(q) > uni.bound:
                        continue
                    target = point_of(uni, repoint(py, k))
                    assert apply_lq(uni, q, u) == target
                    moved += 1
    assert moved > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reduce_properties_hypothesis(a2, seed):
    S = build_suitable(a2)
    rng = random.Random(seed)
    p = random_trail(S, rng, 7)
    r = reduce_trail(S, p)
    assert len(r) <= len(p)
    assert r.begin == p.begin
    assert reduce_trail(S, r) == r


def test_pair_lengths_as_if_every_pair_were_offered(a2, pentagon, census):
    # the pair-length lemma against its reference: offering all nine
    # ordered pairs of each new triple, in the order the triples were
    # first met, gives each pair the length of its shortest triple, and
    # that is the length of its longer point; the pairs offered are
    # exactly the labelled pairs final_representation stages by point
    # length
    cases = [(A, d) for A in (a2, pentagon) for d in (1, 2, 3, 4)]
    cases += [(B, d) for B in census for d in (1, 2, 3)]
    for A, depth in cases:
        uni = build_universe(build_suitable(A), depth)
        offered = {}
        for trip, info in uni.triples.items():
            for i in trip:
                for j in trip:
                    offered.setdefault((i, j), info.min_length)
        lengths = uni.lengths
        assert offered == {(u, v): max(lengths[u], lengths[v]) for u, v in offered}
        assert offered.keys() == reduct.build_pair_structure(A, uni).label.keys()


def test_fresh_pids_never_share_a_reduced_trail(a2, pentagon, census):
    # each spine is walked once, so the reduced trail (spine, k) a spine
    # adds is new: the pids match the reference's, one per reduced
    # trail, and every pid's trail is reduced and of its recorded length
    for A in (a2, pentagon, *census):
        for depth in (1, 2, 3, 4):
            ref = assert_matches_reference(A, depth)
            lengths = build_universe(ref.S, depth).lengths
            assert len({pt.trail for pt in ref.by_id}) == len(lengths) == len(ref.by_id)
            for pt in ref.by_id:
                assert is_reduced(ref.S, pt.trail)
                assert len(pt.trail) == lengths[pt.pid]
