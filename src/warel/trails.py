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

Each class contains a unique fully reduced trail, computed here by a
fixed deterministic strategy (round-trip deletion, then chopping and
repointing read from per-element tables of the suitable structure) and
cross-checked by randomized rule order in the tests.  Points of the
represented universe are these classes; the bounded universe collects
all points and all coordinate triples reachable by trails up to a
length cap, marking data whose only witnesses sit at the cap as
frontier.  Its walk covers only round-trip-free spines: a round trip
repeats the classes of a shorter spine, so those spines add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .core import GuardExceeded, Triple
from .suitable import COORDS, SuitableStructure

# The most points a growth stage may create: the trail universe and, in
# ``represent``, the labelling system's saturation.
POINT_BUDGET = 500_000


@dataclass(frozen=True)
class Trail:
    nodes: tuple[int, ...]  # indices into the carrier
    steps: tuple[int, ...]  # one fewer than nodes
    pointer: int

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def begin(self) -> int:
        return self.nodes[0]

    @property
    def end(self) -> int:
        return self.nodes[-1]

    def repoint(self, l: int) -> "Trail":
        return Trail(self.nodes, self.steps, l)


def _delete_round_trips(nodes: list[int], steps: list[int]) -> None:
    # innermost-first deletion of t -k- s -k- t patterns, to a fixpoint
    i = 0
    while i <= len(nodes) - 3:
        if nodes[i] == nodes[i + 2] and steps[i] == steps[i + 1]:
            del nodes[i + 1 : i + 3]
            del steps[i : i + 2]
            i = max(i - 2, 0)
        else:
            i += 1


def _settle(
    S: SuitableStructure, nodes: Sequence[int], steps: Sequence[int], pointer: int
) -> Trail:
    # chop and repoint a trail free of round trips until neither applies,
    # then minimize the pointer of a length-one trail over all reachable
    # indices; both moves read per-element tables of the structure
    repoint = S.least_repoint
    n = len(nodes)
    while n > 1:
        if steps[n - 2] != pointer:
            n -= 1
            continue
        l = repoint[nodes[n - 1]][pointer]
        if l < 0:
            return Trail(tuple(nodes[:n]), tuple(steps[: n - 1]), pointer)
        pointer = l
    return Trail((nodes[0],), (), S.least_reachable[nodes[0]][pointer])


def reduce_trail(S: SuitableStructure, p: Trail) -> Trail:
    """The unique reduced trail equivalent to p.

    Strategy: round-trip deletions to a fixpoint, then alternately
    delete the last element (when its incoming index differs from the
    pointer) and repoint to the least index licensed at the last
    element, and finally minimize the pointer of a length-one trail
    over all reachable indices.
    """
    nodes = list(p.nodes)
    steps = list(p.steps)
    _delete_round_trips(nodes, steps)
    return _settle(S, nodes, steps, p.pointer)


# ---------------------------------------------------------------------------
# Bounded universe


@dataclass(frozen=True)
class Point:
    pid: int
    trail: Trail  # the reduced representative

    @property
    def length(self) -> int:
        return len(self.trail)

    @property
    def begin(self) -> int:
        return self.trail.begin


class TripleInfo(NamedTuple):
    end: int  # carrier element all witnessing trails end at
    min_length: int  # shortest witnessing trail seen

    def is_frontier(self, bound: int) -> bool:
        return self.min_length >= bound


Spine = tuple[tuple[int, ...], tuple[int, ...]]  # (nodes, steps)


@dataclass
class BoundedUniverse:
    """The points and coordinate triples reached by trails up to ``bound``.

    A point is an int pid.  The hot path reads only ints, tuples and
    lists: per point, ``lengths[pid]`` and ``pointers[pid]`` are the
    length and pointer of its reduced trail, ``spines[pid]`` that trail's
    ``(nodes, steps)`` and ``own_triples[pid]`` the triple of that spine;
    ``base_triples[t]`` is the triple of the length-one spine at carrier
    element t; ``triples`` and ``pair_min_length`` key the reached
    triples and ordered point pairs by pids.  ``by_id`` (each pid's
    :class:`Point`), ``points`` (its inverse, keyed by reduced trail) and
    ``point_of`` are lazy views built from those lists on first access,
    for ``perfbench/tracer.py`` and the tests.
    """

    S: SuitableStructure
    bound: int
    triples: dict[tuple[int, int, int], TripleInfo] = field(default_factory=dict)
    pair_min_length: dict[tuple[int, int], int] = field(default_factory=dict)
    lengths: list[int] = field(default_factory=list)
    pointers: list[int] = field(default_factory=list)
    spines: list[Spine] = field(default_factory=list)
    own_triples: list[tuple[int, int, int]] = field(default_factory=list)
    base_triples: list[tuple[int, int, int]] = field(default_factory=list)
    spines_seen: int = 0

    @cached_property
    def by_id(self) -> list[Point]:
        return [
            Point(pid, Trail(nodes, steps, pointer))
            for pid, ((nodes, steps), pointer) in enumerate(zip(self.spines, self.pointers))
        ]

    @cached_property
    def points(self) -> dict[Trail, Point]:
        return {pt.trail: pt for pt in self.by_id}

    def point_of(self, p: Trail) -> Point:
        red = reduce_trail(self.S, p)
        pt = self.points.get(red)
        if pt is None:
            raise GuardExceeded("trail reduces outside the bounded universe")
        return pt

    @cached_property
    def orbit_sets(self) -> dict[int, frozenset[tuple[int, int, int]]]:
        """Triples grouped by the carrier element their trails end at."""
        out: dict[int, set] = {}
        for trip, info in self.triples.items():
            out.setdefault(info.end, set()).add(trip)
        return {t: frozenset(s) for t, s in out.items()}

    def frontier_triples(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(
            trip for trip, info in self.triples.items() if info.is_frontier(self.bound)
        )


# (p, q) positions a new triple offers: all nine at length one, else those holding k
_PAIR_POSITIONS = {
    k: [(p, q) for p in COORDS for q in COORDS if k in (None, p, q)] for k in (*COORDS, None)
}


def build_universe(
    S: SuitableStructure,
    bound: int,
    max_spines: int = 2_000_000,
    max_points: int = POINT_BUDGET,
) -> BoundedUniverse:
    """Breadth-first generation of every round-trip-free trail up to the
    length bound.

    Pointer choice never affects a trail's coordinate triple, so the
    walk enumerates node/step spines and records the points of the
    three repointings of each.  A spine containing a round trip
    t -k- s -k- t has the classes of the spine without it, two steps
    shorter and already walked, so it adds no point, triple or length;
    the walk never steps straight back along the step it came by, and
    ``spines_seen`` and ``max_spines`` count round-trip-free spines (a
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
    length, pointer k and spine go to ``lengths``, ``pointers`` and
    ``spines``.  Only the length-one spines are settled: the pointer p
    of the spine at t settles to ``S.least_reachable[t][p]``, and a
    local dict of at most three entries per element gives each settled
    pointer one pid.  No ``Trail`` or ``Point`` object is built.

    ``pair_min_length`` records each ordered pair of points at the
    length of the first triple holding it.  A new triple longer than one
    differs from its parent's only at coordinate k, so its pairs
    (trip[p], trip[q]) with p, q != k came with the parent's triple at
    no larger length; offering only the five with k in (p, q), in the
    nested (p, q) order, gives the dict and its order of all nine.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    uni = BoundedUniverse(S, bound)
    lengths, pointers, spines = uni.lengths, uni.pointers, uni.spines
    own, triples, pair_min = uni.own_triples, uni.triples, uni.pair_min_length
    repoint, reach, neighbors = S.least_repoint, S.least_reachable, S.neighbors
    # (nodes, steps, the parent spine's triple; None at length one)
    layer: list[tuple[tuple[int, ...], tuple[int, ...], Optional[Triple]]] = [
        ((t,), (), None) for t in range(S.size)
    ]
    length = 1
    while layer:
        uni.spines_seen += len(layer)
        if uni.spines_seen > max_spines:
            raise GuardExceeded(f"spine budget {max_spines} exceeded")
        # one shared TripleInfo per end element in this layer
        infos = [TripleInfo(t, length) for t in range(S.size)]
        nxt = []
        for nodes, steps, parent in layer:
            last = nodes[-1]
            if parent is None:
                settled: dict[int, int] = {}
                spine = (nodes, steps)
                for r in reach[last]:
                    if r not in settled:
                        settled[r] = len(lengths)
                        lengths.append(1)
                        pointers.append(r)
                        spines.append(spine)
                trip = tuple(settled[r] for r in reach[last])
                uni.base_triples.append(trip)
            else:
                k = steps[-1]
                l = repoint[last][k]
                if l >= 0:
                    at_k = parent[l]
                else:
                    at_k = len(lengths)
                    lengths.append(length)
                    pointers.append(k)
                    spines.append((nodes, steps))
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
                for p, q in _PAIR_POSITIONS[None if parent is None else k]:
                    pair_min.setdefault((trip[p], trip[q]), length)
            elif info.end != last:
                raise AssertionError(
                    "one coordinate triple reached from two carrier elements"
                )
            if length < bound:
                # never straight back along the step just taken; siblings
                # by one index share their steps tuple
                bk, bj = (steps[-1], nodes[-2]) if steps else (-1, -1)
                for k in COORDS:
                    ks = steps + (k,)
                    for j in neighbors[k][last]:
                        if j != bj or k != bk:
                            nxt.append((nodes + (j,), ks, trip))
        layer = nxt
        length += 1
    return uni
