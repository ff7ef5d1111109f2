"""Trail calculus over a suitable structure.

A trail is an alternating sequence of carrier elements and coordinate
indices: consecutive elements are distinct and related by the named
coordinate equivalence, and a final index (the pointer) closes the
sequence.  Three rewrite moves generate an equivalence on trails:

  (a) delete an immediate round trip t -k- s -k- t;
  (b) delete the last element when the index before it differs from
      the pointer;
  (c) swap the pointer p for an index l when the last element lies in
      the distinguished subset for (l, p).

Each class contains a unique fully reduced trail.  The walk below
settles chopping and repointing with per-element tables of the suitable
structure (``least_repoint`` and ``least_reachable``); the tests reduce
arbitrary trails with the same tables and cross-check them against
randomized rule order.  Points of the represented universe are these
classes; the bounded universe collects
all points and all coordinate triples reachable by trails up to a
length cap, marking data whose only witnesses sit at the cap as
frontier.  Its walk covers only round-trip-free spines: a round trip
repeats the classes of a shorter spine, so those spines add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import core
from .core import ConsistencyError, GuardExceeded, Triple
from .suitable import COORDS, SuitableStructure


class TripleInfo(NamedTuple):
    end: int  # carrier element all witnessing trails end at
    min_length: int  # shortest witnessing trail seen

    def is_frontier(self, bound: int) -> bool:
        return self.min_length >= bound


@dataclass
class BoundedUniverse:
    """The points and coordinate triples reached by trails up to ``bound``.

    A point is an int pid, and no trail is stored.  The hot path reads
    only ints, tuples and lists: per point, ``lengths[pid]`` and
    ``pointers[pid]`` are the length and pointer of its reduced trail
    and ``own_triples[pid]`` the triple of that trail's spine;
    ``base_triples[t]`` is the triple of the length-one spine at carrier
    element t; ``triples`` keys the reached triples by pids.  ``by_id``
    is the range of pids, a count view for ``perfbench/tracer.py``.

    Nothing is kept per pair: the shortest trail holding a pair (u, v)
    of a reached triple has length ``max(lengths[u], lengths[v])`` (the
    pair-length lemma of :func:`build_universe`).  A triple's own
    ``TripleInfo.min_length`` is kept, since it is not read off its
    points: a repointed triple reuses points of its parent's, so it can
    be longer than each of them.
    """

    S: SuitableStructure
    bound: int
    triples: dict[tuple[int, int, int], TripleInfo] = field(default_factory=dict)
    lengths: list[int] = field(default_factory=list)
    pointers: list[int] = field(default_factory=list)
    own_triples: list[tuple[int, int, int]] = field(default_factory=list)
    base_triples: list[tuple[int, int, int]] = field(default_factory=list)
    spines_seen: int = 0

    @property
    def by_id(self) -> range:
        return range(len(self.lengths))

    def frontier_triples(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(
            trip for trip, info in self.triples.items() if info.is_frontier(self.bound)
        )


def build_universe(S: SuitableStructure, bound: int) -> BoundedUniverse:
    """Breadth-first generation of every round-trip-free trail up to the
    length bound, under the budgets ``core.SPINE_BUDGET`` and
    ``core.POINT_BUDGET``, read when the walk starts.

    Pointer choice never affects a trail's coordinate triple, so the
    walk enumerates node/step spines and records the points of the
    three repointings of each.  A spine containing a round trip
    t -k- s -k- t has the classes of the spine without it, two steps
    shorter and already walked, so it adds no point, triple or length;
    the walk never steps straight back along the step it came by, and
    ``spines_seen`` and the spine budget count round-trip-free spines (a
    layer that would pass the budget is refused before it is walked).

    Each spine's triple is read off its parent's (the spine without its
    last element), which the layer carries along.  Lemma: let the
    spine's last step be k and its last element t.  For a pointer
    p != k move (b) chops t, so the spine's point at p is the parent's
    point at p.  For p = k, if l = ``S.least_repoint[t][k]`` is a
    licensed swap, settling repoints to l != k and then chops, giving
    the parent's point at l; otherwise the trail (spine, k) is already
    reduced, and it is the only point the spine can add.  Every point is
    first met at the spine of its own reduced trail, so the walk records
    that spine's triple per point, and the length-one triple per carrier
    element.  Triples record the shortest witnessing spine; ones seen
    only at the cap are frontier data.

    Fresh-pid lemma: a reduced trail (spine, k) longer than one is met
    only at its own spine, and the walk visits each spine once, so the
    point it adds is new.  It takes the next pid with no lookup; its
    length and pointer k go to ``lengths`` and ``pointers``.  Only the
    length-one spines are settled: the pointer p of the spine at t
    settles to ``S.least_reachable[t][p]``, and a local dict of at most
    three entries per element gives each settled pointer one pid.

    Pair-length lemma: the shortest spine whose triple holds a pair
    (u, v) of points, u = v allowed, has length max(lengths[u],
    lengths[v]), so no length is stored per pair.  It is no shorter: a
    spine of length L has only points of trail length at most L, since
    settling never lengthens a trail.  It is no longer: take the first triple
    holding the pair, of length L.  If L > 1 it differs from its
    parent's, of length L - 1, only at coordinate k.  A repointed
    ``at_k`` is ``parent[l]``, so then every pair of the triple is a
    pair of the parent's, and the pair came earlier.  So ``at_k`` is a
    fresh pid of length L and one of u, v.

    The lemma does not hold for triples, which is why ``TripleInfo``
    keeps ``min_length``: a repointed triple is new at length L while
    its points, all reused, can each be shorter than L.

    Triangle lemma: label every pair of points of a reached triple, and
    call (u, v, w) a triangle when (u, v), (v, w) and (u, w) are
    labelled.  Every triangle lies in one reached triple.  Two points
    first: take a labelled pair of distinct points u, v.  If both have
    length one, the first triple holding the pair has length one, a
    base triple; each element's base pids are fresh, through the local
    ``settled`` dict, so no two base triples share a point, and the
    pair lies in the base triple of either point.  Otherwise, by the
    pair-length lemma, the longer point is the fresh ``at_k`` of the
    first triple holding the pair, so the other point lies in the
    longer point's ``own_triples`` entry.  Two distinct paired points
    of equal length L >= 2 cannot occur: the other point comes from the
    parent, whose points are shorter than L.  Three distinct points
    next: if the longest has length at least two it is unique, by the
    tie rule just given, and the other two lie in its own triple, where
    it sits once among two shorter points, so the triangle is a
    permutation of that triple.  If all three have length one, the
    three pairs lie in base triples, which share no point, so in one,
    and the triangle is a permutation of it.  A triangle with a
    repeated point has at most two points, and lies in any triple
    holding their pair, or any holding its one point.  The pair-kind
    lemma of :func:`warel.reduct.check_pair_partition` splits the
    labelled pairs into loops, descent and base pairs by this lemma.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    max_spines, max_points = core.SPINE_BUDGET, core.POINT_BUDGET
    uni = BoundedUniverse(S, bound)
    lengths, pointers = uni.lengths, uni.pointers
    own, triples = uni.own_triples, uni.triples
    repoint, reach, neighbors = S.least_repoint, S.least_reachable, S.neighbors
    # (last element, the one before it, last step, the parent spine's
    # triple); -1, -1 and None at length one
    layer: list[tuple[int, int, int, Optional[Triple]]] = [
        (t, -1, -1, None) for t in range(S.size)
    ]
    length = 1
    while layer:
        uni.spines_seen += len(layer)
        if uni.spines_seen > max_spines:
            raise GuardExceeded(f"spine budget {max_spines} exceeded")
        # one shared TripleInfo per end element in this layer
        infos = [TripleInfo(t, length) for t in range(S.size)]
        nxt = []
        for last, before, k, parent in layer:
            if parent is None:
                settled: dict[int, int] = {}
                for r in reach[last]:
                    if r not in settled:
                        settled[r] = len(lengths)
                        lengths.append(1)
                        pointers.append(r)
                trip = tuple(settled[r] for r in reach[last])
                uni.base_triples.append(trip)
            else:
                l = repoint[last][k]
                if l >= 0:
                    at_k = parent[l]
                else:
                    at_k = len(lengths)
                    lengths.append(length)
                    pointers.append(k)
                if k == 0:
                    trip = (at_k, parent[1], parent[2])
                elif k == 1:
                    trip = (parent[0], at_k, parent[2])
                else:
                    trip = (parent[0], parent[1], at_k)
            if len(lengths) > len(own):
                if len(lengths) > max_points:
                    raise GuardExceeded(f"point budget {max_points} exceeded")
                own.extend([trip] * (len(lengths) - len(own)))
            info = triples.get(trip)
            if info is None:
                triples[trip] = infos[last]
            elif info.end != last:
                raise ConsistencyError("one coordinate triple reached from two carrier elements")
            if length < bound:
                # never straight back along the step just taken
                for step in COORDS:
                    for j in neighbors[step][last]:
                        if j != before or step != k:
                            nxt.append((j, last, step, trip))
        layer = nxt
        length += 1
    return uni
