"""Relation-algebraic reducts and the final relativized representation.

The two-dimensional elements of the complex algebra (fixpoints of the
last cylindrification) carry relation-algebra operations defined by
diagonal-guarded cylindrification terms; the source algebra embeds
onto them by sending an element to the set of carrier triples whose
last coordinate sits below it.

Over a bounded trail universe, every ordered pair of points occurring
in a reachable coordinate triple gets a well-defined atom label.  The
pair stage returns these labels as a :class:`~warel.relset.Network`,
the object the labelling pipeline's pair stage ends in too, and every
later check reads that network and the universe.  The split of the
pairs into identity, descent and base pairs, and the Lemma 9 types of
the triples, are read off the universe's per-point lists by the check
that needs them.  The network turns algebra elements into relations
over points, and the resulting map is checked to be a Boolean
embedding respecting identity, converse, and composition up to the
frontier, which is the bounded form of the full representation
theorem.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import AtomStructure, CheckResult, iter_bits
from .cylindric import ComplexAlgebra
from .relset import Network
from .suitable import COORDS, SuitableStructure
from .trails import BoundedUniverse


# ---------------------------------------------------------------------------
# The two-dimensional reduct


@dataclass(frozen=True)
class Reduct:
    cm: ComplexAlgebra

    @property
    def identity(self) -> int:
        return self.cm.diag(0, 1)

    def is_two_dim(self, x: int) -> bool:
        return self.cm.cyl(2, x) == x

    def compose(self, x: int, y: int) -> int:
        cm = self.cm
        return cm.cyl(2, cm.cyl(1, cm.diag(1, 2) & x) & cm.cyl(0, cm.diag(0, 2) & y))

    def converse(self, x: int) -> int:
        cm = self.cm
        inner = cm.cyl(1, cm.diag(1, 2) & x)
        inner = cm.cyl(0, cm.diag(0, 1) & inner)
        return cm.cyl(2, cm.diag(2, 0) & inner)


def ra_reduct(S: SuitableStructure) -> Reduct:
    return Reduct(ComplexAlgebra(S))


def _first_failure(xs, converse_ok, compose_ok):
    """The first failing ("converse", x) or ("compose", x, y), x and y ascending over xs."""
    for x in xs:
        if not converse_ok(x):
            return ("converse", x)
        y = next((y for y in xs if not compose_ok(x, y)), None)
        if y is not None:
            return ("compose", x, y)
    return None


def check_reduct_closure(S: SuitableStructure) -> tuple[CheckResult, ...]:
    """Every join of 2-blocks is two-dimensional, and so are the
    identity and the converses and composites of such joins.

    Only ``identity-two-dimensional`` is computed.  The other two lines
    are decided by their lemma: the 2-blocks are disjoint, so a join of
    2-blocks is its own c_2, and converse and composition both end in
    c_2, whose values are such joins."""
    ra = ra_reduct(S)
    return (
        CheckResult("carrier-two-dimensional", True),
        CheckResult("identity-two-dimensional", ra.is_two_dim(ra.identity)),
        CheckResult("operations-closed", True),
    )


def check_reduct_isomorphism(A: AtomStructure, S: SuitableStructure) -> tuple[CheckResult, ...]:
    """phi, sending x to the carrier elements whose last coordinate lies
    below x, is an isomorphism onto the two-dimensional reduct.

    Decided on the atoms.  phi joins the disjoint images ``img[a]`` of
    the atoms a below x: it is injective iff no image is empty, onto
    the carrier iff the nonzero images are the 2-blocks (the minimal
    nonzero joins of either family), and Boolean iff they cover the
    carrier.  The operation equations have additive sides, so a mask
    failing one fails it at an atom no larger than itself, and a loop
    ascending over every element pair first fails at a pair of atoms."""
    img = [sum(1 << i for i, t in enumerate(S.elements) if t[2] == a) for a in range(A.atom_count)]
    phi = lambda m: sum(img[a] for a in iter_bits(m))
    ra = ra_reduct(S)
    bad = _first_failure(
        [1 << a for a in range(A.atom_count)],
        lambda x: phi(A.conv_el(x)) == ra.converse(phi(x)),
        lambda x, y: phi(A.comp_atoms[x.bit_length() - 1][y.bit_length() - 1]) == ra.compose(phi(x), phi(y)),
    )
    return (
        CheckResult("injective", all(img)),
        CheckResult("surjective-onto-reduct", {m for m in img if m} == set(S.blocks[2].values())),
        CheckResult("boolean-preserved", sum(img) == S.full_mask),
        CheckResult("identity-preserved", phi(A.identity) == ra.identity),
        CheckResult("operations-preserved", bad is None, str(bad or "")),
    )


# ---------------------------------------------------------------------------
# Pair labels over a bounded universe


class LabelDisagreement(RuntimeError):
    """Two witnessing trails assigned different atoms to one pair."""


def _label_entries(
    A: AtomStructure, t: tuple[int, int, int]
) -> tuple[tuple[tuple[int, int, int], ...], bool]:
    """The ``(i, j, label)`` entries that a triple ending at the carrier
    element with atoms t gives its pairs ``(trip[i], trip[j])``, in
    assignment order, and whether the three diagonal labels agree.  When
    one does not, the entries stop at the diagonal where it fails."""
    conv = A.converse
    t0, t1, t2 = t
    entries = [
        (0, 1, t2), (1, 0, conv[t2]), (1, 2, t0), (2, 1, conv[t0]), (0, 2, t1), (2, 0, conv[t1])
    ]
    for k, d, other in (
        (0, A.dom_atom(t1), A.dom_atom(t2)),
        (1, A.rng_atom(t2), A.dom_atom(t0)),
        (2, A.rng_atom(t0), A.rng_atom(t1)),
    ):
        if d != other:
            return tuple(entries), False
        entries.append((k, k, d.bit_length() - 1))
    return tuple(entries), True


def build_pair_structure(A: AtomStructure, uni: BoundedUniverse) -> Network:
    """The trail pipeline's network: an atom label for every ordered pair
    of points of a reachable triple.

    Exact over every reachable triple, in sorted order; the nine label
    entries and three diagonal agreements are computed once per distinct
    end of the triples, before the walk, and each triple only stores or
    compares its pairs' labels.  A pair given two labels, or a triple
    whose diagonal labels disagree, raises :class:`LabelDisagreement`.
    """
    label: dict[tuple[int, int], int] = {}
    ends = {info.end for info in uni.triples.values()}
    rows = {t: _label_entries(A, uni.S.elements[t]) for t in ends}
    for trip, info in sorted(uni.triples.items()):
        entries, agree = rows[info.end]
        for i, j, a in entries:
            u, v = trip[i], trip[j]
            old = label.setdefault((u, v), a)
            if old != a:
                raise LabelDisagreement(f"pair ({u},{v}) labelled {old} and {a}")
        if not agree:
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
    return Network(A, label)


def _partners(uni: BoundedUniverse, pid: int) -> tuple[int, ...]:
    """A point's descent partners, the other repointings of its reduced
    trail: the coordinates of its own triple off its pointer, in
    coordinate order.  A point of length one has none."""
    if uni.lengths[pid] == 1:
        return ()
    k = uni.pointers[pid]
    trip = uni.own_triples[pid]
    return trip[:k] + trip[k + 1 :]


def _base_pairs(A: AtomStructure, uni: BoundedUniverse) -> set[tuple[int, int]]:
    """The pairs (base[k], base[l]), k != l, of each length-one triple
    whose third coordinate carries a diversity atom."""
    ident = A.identity
    out = set()
    for t, base in zip(uni.S.elements, uni.base_triples):
        for k in COORDS:
            for l in COORDS:
                if k != l and not (1 << t[3 - k - l]) & ident:
                    out.add((base[k], base[l]))
    return out


def _typed(uni: BoundedUniverse, descent: set, base: set, trip: tuple[int, int, int]) -> bool:
    """Whether a reachable triple has one of the six Lemma 9 types, given
    the universe's descent and base pairs.

    A pair of distinct points is of one kind when it lies in exactly one
    of the two sets; both hold each pair both ways round, so the points
    are never sorted.  The types: a single point; a doubled point whose
    pair is of one kind (doubled-descent, doubled-base); three points
    whose pairs are all base pairs only (three-base); or three points
    whose longest (ties broken by the larger pid) has the other two as
    its descent partners, and whose remaining pair is of one kind
    (descent-descent, descent-base).
    """
    u, v, w = trip
    if u == v or v == w or u == w:
        if u == v == w:
            return True
        pair = (u, w) if u == v else (u, v)
        return (pair in descent) != (pair in base)
    if (v, w) in base and (u, w) in base and (u, v) in base and not (
        (v, w) in descent or (u, w) in descent or (u, v) in descent
    ):
        return True
    lengths = uni.lengths
    ku, kv, kw = (lengths[u], u), (lengths[v], v), (lengths[w], w)
    if ku > kv and ku > kw:
        top, a, b = u, v, w
    elif kv > kw:
        top, a, b = v, u, w
    else:
        top, a, b = w, u, v
    return _partners(uni, top) in ((a, b), (b, a)) and ((a, b) in descent) != ((a, b) in base)


def check_pair_partition(uni: BoundedUniverse, net: Network) -> tuple[CheckResult, ...]:
    """The labelled pairs split exactly into identity pairs (the loops),
    descent pairs (each point paired with each of its descent partners,
    both ways round) and base pairs (``_base_pairs``); every reachable
    triple has one of the six Lemma 9 types (``_typed``); and every
    descent partner is shorter than its point.

    Exact.  The pair sets are read off the universe's per-point lists
    and ``uni.base_triples`` and live only for the check; one walk over
    the points builds the descent pairs and finds the first long
    partner, with points ascending and each point's descent pairs in
    the iteration order of their set.  The split is exact when the three
    sets are disjoint, lie in the unit and their sizes add up to its
    size.  Untyped triples are named, as unclassified, in sorted order."""
    lengths = uni.lengths
    descent = set()
    bad = None
    for pid in range(len(uni.own_triples)):
        for u, v in frozenset((pid, q) for q in _partners(uni, pid)):
            descent.add((u, v))
            descent.add((v, u))
            if bad is None and lengths[v] >= lengths[u]:
                bad = (u, v)
    pairs = net.label.keys()
    identity = {pr for pr in pairs if pr[0] == pr[1]}
    base = _base_pairs(net.algebra, uni)
    overlap = identity & descent or identity & base or descent & base
    exact = (
        not overlap
        and pairs >= descent
        and pairs >= base
        and len(identity) + len(descent) + len(base) == len(pairs)
    )
    unclassified = heapq.nsmallest(
        3, (t for t in uni.triples if not _typed(uni, descent, base, t))
    )
    return (
        CheckResult(
            "pair-partition-exact",
            exact,
            f"|pairs|={len(pairs)} id={len(identity)} "
            f"descent={len(descent)} base={len(base)}",
        ),
        CheckResult(
            "triple-types-total",
            not unclassified,
            f"unclassified {unclassified}"
            if unclassified
            else f"{len(uni.triples)} triples classified",
        ),
        CheckResult("descent-pairs-shorten", bad is None, str(bad or "")),
    )


def check_key_property(uni: BoundedUniverse, net: Network) -> CheckResult:
    """label(x,y) ; label(y,z) covers label(x,z) on every permutation of
    every reachable triple.

    Exact over every reachable triple, each reading its nine labels from
    ``net.label``; each distinct 3x3 label matrix is decided once by
    :meth:`~warel.core.AtomStructure.matrix_violation` over its 27 index
    choices, which range over the same ordered (x, y, z) as the triple's
    points.  The first failing triple, in ``uni.triples`` order, is
    walked again over its points only to name the witness."""
    comp = net.algebra.comp_atoms
    label = net.label
    decided: dict[tuple[int, ...], bool] = {}
    for trip in uni.triples:
        u, v, w = trip
        m = (
            label[(u, u)], label[(u, v)], label[(u, w)],
            label[(v, u)], label[(v, v)], label[(v, w)],
            label[(w, u)], label[(w, v)], label[(w, w)],
        )
        ok = decided.get(m)
        if ok is None:
            ok = decided[m] = net.algebra.matrix_violation(m) is None
        if ok:
            continue
        pts = set(trip)
        for x in pts:
            for y in pts:
                for z in pts:
                    a = label[(x, y)]
                    b = label[(y, z)]
                    c = label[(x, z)]
                    if not (1 << c) & comp[a][b]:
                        return CheckResult(
                            "label-composition-bound", False, f"{(x, y, z)}"
                        )
    return CheckResult("label-composition-bound", True)


# ---------------------------------------------------------------------------
# Replacement closure (non-permutation images of reachable triples)


def _replacement_generators() -> dict[tuple[int, int, int], int]:
    """Minimal number of one-step coordinate replacements realizing each
    non-permutation of a triple."""
    gens = []
    for k in COORDS:
        for l in COORDS:
            if k != l:
                m = 3 - k - l
                f = [0, 0, 0]
                f[k] = l
                f[l] = l
                f[m] = m
                gens.append(tuple(f))
    dist: dict[tuple[int, int, int], int] = {(0, 1, 2): 0}
    frontier = [(0, 1, 2)]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(f[g[i]] for i in COORDS)
                if h not in dist:
                    dist[h] = dist[f] + 1
                    nxt.append(h)
        frontier = nxt
    return {f: d for f, d in dist.items() if sorted(f) != [0, 1, 2]}


REPLACEMENT_STEPS = _replacement_generators()


def check_replacement_closure(uni: BoundedUniverse) -> tuple[CheckResult, ...]:
    """Every non-permutation image of a reachable triple is reachable,
    given enough headroom: an image needing k replacements is demanded
    only of triples whose shortest witness leaves k steps below the
    bound.  Exclusion counts are reported.

    The demanded replacements depend only on a triple's shortest
    witness length h, so they are listed once per h, in
    ``REPLACEMENT_STEPS`` order; a frontier triple demands none."""
    bound = uni.bound
    total = len(REPLACEMENT_STEPS)
    demanded: dict[int, list[tuple[int, int, int]]] = {}
    checked = 0
    excluded = 0
    bad = None
    for trip, info in uni.triples.items():
        h = info.min_length
        fs = demanded.get(h)
        if fs is None:
            fs = demanded[h] = [
                f for f, steps in REPLACEMENT_STEPS.items() if h + steps <= bound
            ]
        excluded += total - len(fs)
        for f in fs:
            image = (trip[f[0]], trip[f[1]], trip[f[2]])
            checked += 1
            if image not in uni.triples:
                bad = (trip, f, image)
                break
        if bad:
            break
    detail = f"checked={checked} excluded={excluded}"
    if bad:
        detail = f"{bad}"
    return (CheckResult("replacement-closure", bad is None, detail),)


# ---------------------------------------------------------------------------
# The final representation over points


def final_representation(
    uni: BoundedUniverse, net: Network
) -> tuple[Network, tuple[CheckResult, ...]]:
    """Verify the point representation, the network of the pair stage;
    returns it with the checks.

    Exactly checked: the unit is symmetric and reflexive on its field,
    no atom image is empty, identity goes to the diagonal, converse
    to relational inverse, and composition upper containment (composed
    images stay below the image of the composition) over every
    triangle.  That the atom images cover the unit disjointly is
    decided by the partition lemma of
    :func:`~warel.labelling.verify_representation`, so the
    ``atom-images-partition`` note counts ``len(net.label)``.  The
    reverse containment is checked for pairs whose shortest witness
    leaves one step of headroom (the middle point comes from a one-step
    trail extension); exclusions are counted.
    Headroom is counted in point lengths: by the pair-length lemma of
    :func:`~warel.trails.build_universe` a pair's shortest witness is
    as long as its longer point, so a pair is checked when both points
    are shorter than the bound.
    """
    bad = net.upper_violation()
    checked, excluded, missing = net.lower_scan(uni.lengths, uni.bound)
    return net, (
        CheckResult(
            "unit-symmetric-reflexive", net.is_symmetric_reflexive(), f"|unit|={len(net.label)}"
        ),
        CheckResult(
            "atom-images-partition", all(net.sizes), f"{len(net.label)} pairs"
        ),
        CheckResult("identity-to-diagonal", net.identity_is_diagonal()),
        CheckResult("converse-exact", net.converse_is_exact()),
        CheckResult("composition-upper-exact", bad is None, str(bad or "")),
        CheckResult(
            "composition-lower-nonfrontier",
            missing is None,
            f"checked={checked} excluded={excluded}"
            + ("" if missing is None else f" missing={missing}"),
        ),
    )


def check_chain_agreement(uni: BoundedUniverse, net: Network) -> CheckResult:
    """Pairs in coordinate positions (0, 1) of reachable triples carry
    exactly the label of the end's last coordinate, and cover every
    label on pairs with three steps of headroom (a coordinate swap
    costs three replacements).  Headroom is counted in point lengths,
    both points three below the bound: by the pair-length lemma of
    :func:`~warel.trails.build_universe` that is the pair's shortest
    witness."""
    lengths, bound = uni.lengths, uni.bound
    n = net.algebra.atom_count
    label = net.label
    chain: dict[int, set[tuple[int, int]]] = {a: set() for a in range(n)}
    for trip, info in uni.triples.items():
        t2 = uni.S.elements[info.end][2]
        chain[t2].add((trip[0], trip[1]))
    for a in range(n):
        for pr in chain[a]:
            if label.get(pr) != a:
                return CheckResult("chain-agreement", False, f"{pr} mislabelled")
    excluded = 0
    for pr, a in label.items():
        if pr in chain[a]:
            continue
        u, v = pr
        if lengths[u] + 3 <= bound and lengths[v] + 3 <= bound:
            return CheckResult("chain-agreement", False, f"{pr} unreachable")
        excluded += 1
    return CheckResult("chain-agreement", True, f"excluded={excluded}")
