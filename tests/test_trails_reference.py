"""The bounded universe against a walk over every spine.

The reference walk below extends spines by every step, round trips
included, and reduces each of the three repointings of every spine with
``reduce_trail``, where ``build_universe`` reads each spine's triple off
its parent's.  It interns every reduced trail through its own
Trail -> Point dict (``RefUniverse``), where ``build_universe`` gives
each new point the next int pid.  The descent partners and base pairs
that ``reduct`` reads off the universe's lists are then computed
through ``point_of``.  Triples must agree in insertion order too,
since reports iterate them in that order, and the reference's pair
lengths, each pair at its first triple, must be the pair-length lemma's
``max(lengths[u], lengths[v])``.  ``reduce_trail`` settles a trail with the per-element tables of
the suitable structure that ``build_universe`` reads; the reference
reducer ``ref_reduce`` is the list-based one with scans over the
distinguished subsets.  ``random_trail`` and ``reduce_random_order``
draw trails and normalize them by moves in random order, for the reducer
tests here and in ``test_trails.py``, which also reads ``reduce_trail``
and ``repoint``.  ``triples_by_end`` groups a universe's triples by
end, for the reference checks that read the orbits.
"""

import random
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from warel import reduct
from warel.core import classify
from warel.suitable import COORDS, build_suitable
from warel.trails import (
    Point,
    Trail,
    TripleInfo,
    build_universe,
)

from test_enumerate_reference import sample_structure


def random_trail(S, rng, max_len):
    """A random walk of at most ``max_len`` carrier elements along the
    coordinate equivalences, with a random pointer."""
    nodes = [rng.randrange(S.size)]
    steps = []
    target = rng.randint(1, max_len)
    while len(nodes) < target:
        choices = [(k, j) for k in COORDS for j in S.neighbors[k][nodes[-1]]]
        if not choices:
            break
        k, j = choices[rng.randrange(len(choices))]
        steps.append(k)
        nodes.append(j)
    return Trail(tuple(nodes), tuple(steps), rng.randrange(3))


def reduce_random_order(S, p, rng):
    """Normalize by applying applicable moves in random order; compared
    with ``reduce_trail`` for confluence."""
    nodes = list(p.nodes)
    steps = list(p.steps)
    pointer = p.pointer
    while True:
        moves = []
        for i in range(len(nodes) - 2):
            if nodes[i] == nodes[i + 2] and steps[i] == steps[i + 1]:
                moves.append(("round", i))
        if len(nodes) > 1 and steps[-1] != pointer:
            moves.append(("chop",))
        if len(nodes) > 1 and steps[-1] == pointer:
            for l in COORDS:
                if l != pointer and (
                    S.in_e(nodes[-1], l, pointer) or S.in_e(nodes[-1], pointer, l)
                ):
                    moves.append(("repoint", l))
        if len(nodes) == 1:
            for l in COORDS:
                if l < pointer and (
                    S.in_e(nodes[0], l, pointer) or S.in_e(nodes[0], pointer, l)
                ):
                    moves.append(("repoint", l))
        if not moves:
            break
        mv = moves[rng.randrange(len(moves))]
        if mv[0] == "round":
            i = mv[1]
            del nodes[i + 1 : i + 3]
            del steps[i : i + 2]
        elif mv[0] == "chop":
            del nodes[-1]
            del steps[-1]
        else:
            pointer = mv[1]
    return Trail(tuple(nodes), tuple(steps), pointer)


def delete_round_trips(nodes, steps):
    """Innermost-first deletion of t -k- s -k- t patterns, to a fixpoint."""
    i = 0
    while i <= len(nodes) - 3:
        if nodes[i] == nodes[i + 2] and steps[i] == steps[i + 1]:
            del nodes[i + 1 : i + 3]
            del steps[i : i + 2]
            i = max(i - 2, 0)
        else:
            i += 1


def reduce_trail(S, p):
    """The unique reduced trail equivalent to p, settled with the
    per-element tables ``build_universe`` walks with.

    Strategy: round-trip deletions to a fixpoint, then alternately
    delete the last element (when its incoming index differs from the
    pointer) and repoint to the least index licensed at the last
    element (``S.least_repoint``), and finally minimize the pointer of a
    length-one trail over all reachable indices (``S.least_reachable``).
    """
    nodes = list(p.nodes)
    steps = list(p.steps)
    delete_round_trips(nodes, steps)
    pointer = p.pointer
    n = len(nodes)
    while n > 1:
        if steps[n - 2] != pointer:
            n -= 1
            continue
        l = S.least_repoint[nodes[n - 1]][pointer]
        if l < 0:
            return Trail(tuple(nodes[:n]), tuple(steps[: n - 1]), pointer)
        pointer = l
    return Trail((nodes[0],), (), S.least_reachable[nodes[0]][pointer])


def ref_reduce(S, p):
    """The list-based reducer: scans the distinguished subsets at every
    move."""
    nodes = list(p.nodes)
    steps = list(p.steps)
    pointer = p.pointer
    delete_round_trips(nodes, steps)
    while len(nodes) > 1:
        if steps[-1] != pointer:
            del nodes[-1]
            del steps[-1]
            continue
        cands = [
            l
            for l in COORDS
            if l != pointer
            and (S.in_e(nodes[-1], l, pointer) or S.in_e(nodes[-1], pointer, l))
        ]
        if cands:
            pointer = min(cands)
            continue
        break
    if len(nodes) == 1:
        reach = {pointer}
        changed = True
        while changed:
            changed = False
            for q in tuple(reach):
                for l in COORDS:
                    if l not in reach and (S.in_e(nodes[0], l, q) or S.in_e(nodes[0], q, l)):
                        reach.add(l)
                        changed = True
        pointer = min(reach)
    return Trail(tuple(nodes), tuple(steps), pointer)


def has_round_trip(nodes, steps):
    return any(
        nodes[i] == nodes[i + 2] and steps[i] == steps[i + 1]
        for i in range(len(nodes) - 2)
    )


def repoint(p, l):
    """The trail p with its pointer swapped for l."""
    return Trail(p.nodes, p.steps, l)


@dataclass
class RefUniverse:
    """Points as ``Point`` objects interned through a Trail -> Point
    dict, as ``BoundedUniverse`` kept them before its points became
    ints."""

    S: object
    bound: int
    points: dict = field(default_factory=dict)
    by_id: list = field(default_factory=list)
    triples: dict = field(default_factory=dict)
    pair_min_length: dict = field(default_factory=dict)
    base_triples: list = field(default_factory=list)

    def intern(self, reduced):
        pt = self.points.get(reduced)
        if pt is None:
            pt = Point(len(self.by_id), reduced)
            self.points[reduced] = pt
            self.by_id.append(pt)
        return pt

    def point_of(self, p):
        return self.points[reduce_trail(self.S, p)]

    def frontier_triples(self):
        return frozenset(
            trip for trip, info in self.triples.items() if info.is_frontier(self.bound)
        )


def triples_by_end(uni):
    """The reachable triples grouped by the carrier element their trails
    end at, each group in ``uni.triples`` order."""
    out = {}
    for trip, info in uni.triples.items():
        out.setdefault(info.end, []).append(trip)
    return out


def ref_universe(S, bound):
    """Every spine up to the bound; returns the universe and the number
    of round-trip-free spines among those walked.  ``base_triples``
    records the triple of each length-one spine."""
    uni = RefUniverse(S, bound)
    free = 0
    layer = [((t,), ()) for t in range(S.size)]
    length = 1
    while layer:
        for nodes, steps in layer:
            free += not has_round_trip(nodes, steps)
            trip = tuple(
                uni.intern(reduce_trail(S, Trail(nodes, steps, k))).pid for k in COORDS
            )
            if length == 1:
                uni.base_triples.append(trip)
            if trip not in uni.triples:
                uni.triples[trip] = TripleInfo(nodes[-1], length)
            else:
                assert uni.triples[trip].end == nodes[-1]
            for i in trip:
                for j in trip:
                    if (i, j) not in uni.pair_min_length:
                        uni.pair_min_length[(i, j)] = length
        if length == bound:
            break
        layer = [
            (nodes + (j,), steps + (k,))
            for nodes, steps in layer
            for k in COORDS
            for j in S.neighbors[k][nodes[-1]]
        ]
        length += 1
    return uni, free


def ref_xi_of(uni):
    out = {}
    for pt in uni.by_id:
        if len(pt.trail) == 1:
            out[pt.pid] = frozenset()
            continue
        p = pt.trail
        partners = {uni.point_of(repoint(p, l)).pid for l in COORDS if l != p.pointer}
        out[pt.pid] = frozenset((pt.pid, q) for q in partners)
    return out


def ref_base_pairs(A, uni):
    out = set()
    for i, t in enumerate(uni.S.elements):
        for k in COORDS:
            for l in COORDS:
                if k != l and not (1 << t[3 - k - l]) & A.identity:
                    base = Trail((i,), (), 0)
                    out.add((uni.point_of(repoint(base, k)).pid, uni.point_of(repoint(base, l)).pid))
    return out


def assert_matches_reference(A, bound):
    S = build_suitable(A)
    uni = build_universe(S, bound)
    ref, free = ref_universe(S, bound)
    assert uni.spines_seen == free
    assert uni.by_id == ref.by_id
    assert uni.lengths == [len(pt.trail) for pt in ref.by_id]
    assert uni.pointers == [pt.trail.pointer for pt in ref.by_id]
    assert list(uni.triples.items()) == list(ref.triples.items())
    lengths = uni.lengths
    assert ref.pair_min_length == {
        (u, v): max(lengths[u], lengths[v]) for u, v in ref.pair_min_length
    }
    assert uni.base_triples == ref.base_triples
    assert uni.frontier_triples() == ref.frontier_triples()
    xi_of = ref_xi_of(ref)
    pids = range(len(uni.lengths))
    assert {pid: frozenset((pid, q) for q in reduct._partners(uni, pid)) for pid in pids} == xi_of
    assert reduct._base_pairs(A, uni) == ref_base_pairs(A, ref)


@settings(max_examples=15, deadline=None)
@given(
    which=st.sampled_from(["a2", "pentagon", "sample"]),
    atoms=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bound=st.integers(min_value=1, max_value=4),
)
def test_universe_matches_reference(a2, pentagon, which, atoms, seed, bound):
    A = {"a2": a2, "pentagon": pentagon}.get(which) or sample_structure(
        atoms, random.Random(seed)
    )
    if classify(A).is_wa:
        assert_matches_reference(A, bound)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reduce_trail_matches_list_reducer(a2, pentagon, seed):
    rng = random.Random(seed)
    for A in (a2, pentagon):
        S = build_suitable(A)
        for _ in range(20):
            p = random_trail(S, rng, 7)
            assert reduce_trail(S, p) == ref_reduce(S, p)
