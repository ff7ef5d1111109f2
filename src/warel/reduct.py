"""Relation-algebraic reducts and the final relativized representation.

The two-dimensional elements of the complex algebra Cm S (fixpoints of
the last cylindrification c_2) carry relation-algebra operations defined
by diagonal-guarded cylindrification terms, with c_k = ``S.t_star(k, .)``
and d_kl = ``S.e_masks[k][l]``: the identity is d_01, the converse of x
is c_2(d_20 . c_0(d_01 . c_1(d_12 . x))), and the composite of x and y
is c_2(c_1(d_12 . x) . c_0(d_02 . y)).  The source algebra embeds onto
them by sending an element to the set of carrier triples whose last
coordinate sits below it.

Over a bounded trail universe, every ordered pair of points occurring
in a reachable coordinate triple gets a well-defined atom label.  The
pair stage writes each point's labels once, with no pass over the
triples, and decides the one premise that the lemmas of the pair and
set-algebra checks rest on (:func:`build_pair_structure`).  It returns
the labels as a :class:`~warel.relset.Network`,
the object the labelling pipeline's pair stage ends in too, and every
later check reads that network and the universe.  The split of the
pairs into identity, descent and base pairs, and the Lemma 9 types of
the triples, are decided by the pair-kind lemma of
:func:`check_pair_partition`, which counts the pairs of each kind off
the universe's per-point lists and base triples.  The network turns
algebra elements into relations over points, and the resulting map is
checked to be a Boolean embedding respecting identity, converse, and
composition up to the frontier, which is the bounded form of the full
representation theorem.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .core import AtomStructure, CheckResult, ConsistencyError, Matrix, iter_bits, matrix_facts
from .relset import Network, Successors
from .suitable import COORDS, SuitableStructure
from .trails import BoundedUniverse


# ---------------------------------------------------------------------------
# The two-dimensional reduct


def _converse(S: SuitableStructure, x: int) -> int:
    c, d = S.t_star, S.e_masks
    return c(2, d[2][0] & c(0, d[0][1] & c(1, d[1][2] & x)))


def _compose(S: SuitableStructure, x: int, y: int) -> int:
    c, d = S.t_star, S.e_masks
    return c(2, c(1, d[1][2] & x) & c(0, d[0][2] & y))


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
    identity = S.e_masks[0][1]
    return (
        CheckResult("carrier-two-dimensional", True),
        CheckResult("identity-two-dimensional", S.t_star(2, identity) == identity),
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
    bad = _first_failure(
        [1 << a for a in range(A.atom_count)],
        lambda x: phi(A.conv_el(x)) == _converse(S, phi(x)),
        lambda x, y: phi(A.comp_atoms[x.bit_length() - 1][y.bit_length() - 1]) == _compose(S, phi(x), phi(y)),
    )
    return (
        CheckResult("injective", all(img)),
        CheckResult("surjective-onto-reduct", {m for m in img if m} == set(S.blocks[2].values())),
        CheckResult("boolean-preserved", sum(img) == S.full_mask),
        CheckResult("identity-preserved", phi(A.identity) == S.e_masks[0][1]),
        CheckResult("operations-preserved", bad is None, str(bad or "")),
    )


# ---------------------------------------------------------------------------
# Pair labels over a bounded universe


def _end_matrix(A: AtomStructure, t: tuple[int, int, int]) -> Matrix:
    """The 3x3 label matrix, row by row, that a triple ending at the
    carrier element with atoms t gives its points.  Each loop's label is
    the domain or range atom of the two atoms that meet there; from the
    first loop whose two masks disagree or are not one atom (as an
    ``AtomStructure`` built directly allows), the loops are None."""
    conv, dom, rng = A.converse, A.atom_domains, A.atom_ranges
    t0, t1, t2 = t
    loops = [None, None, None]
    for k, (x, y) in enumerate(((dom[t1], dom[t2]), (rng[t2], dom[t0]), (rng[t0], rng[t1]))):
        if x != y or not x or x & (x - 1):
            break
        loops[k] = x.bit_length() - 1
    d0, d1, d2 = loops
    return (d0, t2, t1, conv[t2], d1, t0, conv[t1], conv[t0], d2)


def _point_rows(uni: BoundedUniverse, matrices: list[Matrix]) -> Optional[tuple[Successors, Successors]]:
    """The rows ``(out, inn)``: each base triple's element matrix, then,
    in pid order, each longer point's loop and its four pairs with its
    descent partners, off its own triple's matrix; None on a clash."""
    out: Successors = {}
    inn: Successors = {}
    for m, trip in zip(matrices, uni.base_triples):
        for e, a in enumerate(m):
            u, v = trip[e // 3], trip[e % 3]
            if out.setdefault(u, {}).setdefault(v, a) != a:
                return None
            inn.setdefault(v, {})[u] = a
    # per element and pointer k: the loop, then pid to p, q and p, q to pid
    five = [
        [(m[4 * k], m[3 * k + i], m[3 * k + j], m[3 * i + k], m[3 * j + k]) for k, (i, j) in enumerate(_OTHERS)]
        for m in matrices
    ]
    triples = uni.triples
    for trip, k, n in zip(uni.own_triples, uni.pointers, uni.lengths):
        if n == 1:
            continue
        d, a, b, c, e = five[triples[trip].end][k]
        i, j = _OTHERS[k]
        pid, p, q = trip[k], trip[i], trip[j]
        if p == q and (a != b or c != e):
            return None
        out[pid], inn[pid] = {pid: d, p: a, q: b}, {pid: d, p: c, q: e}
        out[p][pid], out[q][pid], inn[p][pid], inn[q][pid] = c, e, a, b
    return out, inn


def build_pair_structure(A: AtomStructure, uni: BoundedUniverse) -> Network:
    """The trail pipeline's network: an atom label for every ordered pair
    of points of a reachable triple, written per point into its rows
    (``_point_rows``), with no pass over ``uni.triples``.  A triple ending
    at carrier element t gives its pairs the entries of M[t] =
    ``_end_matrix``.

    The pair stage's premise, decided here before the network is
    returned, a failing part raising :class:`~warel.core.ConsistencyError`:
    the carrier is keyed, each element's k-key being its atom at
    coordinate k (``S.tkey == tuple(zip(*S.elements))``), no M[t] has a
    None loop, and no write gives a pair two labels.  It is proved for a
    WA atom structure and its carrier from
    :func:`~warel.suitable.build_suitable`, the cycles t, t1 <= t2 ; t0:

    - *Keyed*: by construction.
    - *No None loop*: by the identity law and ra9, distinct identity
      atoms compose to 0, and a <= e ; b for an identity atom e only when
      a = b, so e ; 1 holds the atoms whose domain holds e.  Domains and
      ranges are nonempty (the identity and cycle laws).  If a's range
      held e and e', then e' <= a~ ; a <= (e ; 1) ; 1 = e ; 1 by WA's ra4,
      against e ; e' = 0.  By ra4, t1 <= (dom t2 ; 1) ; 1 = dom t2 ; 1, so
      dom t1 = dom t2; the converse cycle gives rng t1 = rng t0, and
      t0 <= t2~ ; t1 gives dom t0 = rng t2.  So each loop is one atom.
    - *No clash*: if t has an identity atom e at m, M[t] is unchanged
      when k is read as l, {k, l, m} = {0, 1, 2}: their pair and loops
      are e, and the identity law equates their other entries (t1 <=
      e ; t0 gives t1 = t0 at m = 2).  Two identity atoms of a cycle force
      the third.  By induction along the walk, coordinates i != j of a
      reached triple ending at t hold one point only when t has an
      identity atom at 3 - i - j: base coordinates settle together by
      swaps, each licensed by one; a k-step keeps the parent's points off
      k and its end's atom at k; a repointed k takes the parent's point at
      l, licensed at 3 - k - l, and at the third coordinate too when that
      point is also there; a fresh one is new.  So no reached triple
      gives a pair two labels, and a write clashes only inside one: base
      triples share no point, and each longer point is written once.

    Locality lemma, for a universe made by
    :func:`~warel.trails.build_universe`: no pair gets two labels and no
    loop is None exactly when no M[t] has a None loop, every walk step
    (before, k, last), ``last`` in ``S.neighbors[k][before]``, agrees
    (M[last] equals M[before] at each entry that the step's triple
    shares with its parent's) and no write clashes; the rows then hold
    every triple's labels.  Proof: every element ends its base triple.
    A step's triple is its parent's with coordinate k replaced, so a
    shared entry names one pair in both.  Take a pair whose longer point
    is u and walk back along parents from a triple holding it: u is
    carried back to its own spine, where it is fresh (the fresh-pid
    lemma), or to its base spine, and the other point, no longer than u,
    is fresh at none of these longer spines.  So every triple on that
    chain holds both points, and step agreement carries the label
    written at its first triple to all of them.

    Step lemma: under the premise, its base writes sufficing for the
    third part, every step agrees.  The entries off k are t[k], its
    converse and the loops at its domain and range, equal for before and
    last, which share their atom at k; a fresh step shares only those.
    A step repointed to l = ``S.least_repoint[last][k]`` shares all
    nine, k reading the parent's point at l, and M[last] is unchanged
    when k is read as l, as both settle to one point of its base triple.

    ``facts`` is the union of the elements' matrix facts: by the triangle
    lemma of :func:`~warel.trails.build_universe` every triangle is an
    index choice of a reachable triple, which carries its end's matrix.
    """
    S = uni.S
    if S.tkey != tuple(zip(*S.elements)):
        raise ConsistencyError("the pair stage needs a carrier keyed by its atoms")
    matrices = [_end_matrix(A, t) for t in S.elements]
    for i, m in enumerate(matrices):
        if None in m:
            raise ConsistencyError(f"diagonal label mismatch at carrier element {i} {S.elements[i]}")
    rows = _point_rows(uni, matrices)
    if rows is None:
        raise ConsistencyError("pair labels clash in one triple's writes, or a clash off the reachable triples")
    net = Network(A, *rows)
    vars(net)["facts"] = frozenset().union(*map(matrix_facts, matrices))
    return net


# The coordinates off each pointer: a point's descent partners.
_OTHERS = ((1, 2), (0, 2), (0, 1))


def check_pair_partition(uni: BoundedUniverse, net: Network) -> tuple[CheckResult, ...]:
    """The labelled pairs split exactly into identity pairs (the loops),
    descent pairs (each point paired with each of its descent partners,
    the coordinates of its own triple off its pointer, both ways round)
    and base pairs (two distinct points of one base triple); every
    reachable triple has one of the six Lemma 9 types; and every descent
    partner is shorter than its point.

    Pair-kind lemma, for a universe made by
    :func:`~warel.trails.build_universe` over a carrier of
    :func:`~warel.suitable.build_suitable`, under the pair stage's
    premise (:func:`build_pair_structure`): every pair of distinct
    points of a reached triple is exactly one of a descent pair and a
    base pair.  Proof: if its longer point u has length two or more, it
    is the fresh point of its own spine (the pair-length lemma), and the
    other point lies in u's own triple (the triangle lemma), off u's
    pointer, where only the parent's points sit: it is a partner of u,
    and shorter (the fresh-pid lemma).  Otherwise both have length one
    and lie in one base triple.  Base points have length one and no
    partners, so no pair is of both kinds.  Two coordinates k != l of a
    base triple hold distinct points exactly when the element has a
    diversity atom at 3 - k - l, the atom their pair is labelled with:
    ``build_suitable`` licenses the swap of k and l exactly at an
    identity atom there, and in a WA cycle two identity atoms force a
    third, so settling joins no other pair.

    So, as each descent pair lies in an own triple and each base pair in
    a base triple, the pairs of the reached triples, which the pair
    stage labels, are the loops, the 2 * partnered descent pairs and the
    base pairs, with no overlap; partnered counts each point's distinct
    partners, as a descent pair is counted only at its longer point.
    Base triples share no point (the triangle lemma), so a base triple
    of d distinct points adds d * (d - 1) base pairs.  Every reached
    triple has a type: one point; two, whose pair is of one kind; or
    three, by the triangle lemma the own triple of the longest, whose
    partners the other two are, their pair of one kind, or a base
    triple, whose pairs are all base pairs.

    ``triple-types-total`` and ``descent-pairs-shorten`` are decided by
    the lemma, with no pass over ``uni.triples``.  The partition line
    cross-checks the network against the universe: the loops of
    ``net._walk``, the descent and the base pairs add up to
    ``sum(net.sizes)``."""
    partnered = 0
    for trip, n, k in zip(uni.own_triples, uni.lengths, uni.pointers):
        if n > 1:
            i, j = _OTHERS[k]
            partnered += 1 if trip[i] == trip[j] else 2
    base = sum(d * (d - 1) for d in map(len, map(set, uni.base_triples)))
    descent, pairs, loops = 2 * partnered, sum(net.sizes), sum(net._walk[2])
    return (
        CheckResult(
            "pair-partition-exact",
            loops + descent + base == pairs,
            f"|pairs|={pairs} id={loops} descent={descent} base={base}",
        ),
        CheckResult("triple-types-total", True, f"{len(uni.triples)} triples classified"),
        CheckResult("descent-pairs-shorten", True),
    )


def check_key_property(uni: BoundedUniverse, net: Network) -> CheckResult:
    """label(x,y) ; label(y,z) covers label(x,z) on every permutation of
    every reachable triple.

    Exact over every reachable triple, and decided with
    ``final.composition-upper-exact``, on ``net.facts``.  Each ordered
    (x, y, z) over a triple's points is a triangle of ``net``, so the
    line holds when every fact lies under composition.  On the network
    of :func:`build_pair_structure` every fact is also read off some
    triple (the triangle lemma of :func:`~warel.trails.build_universe`),
    so a failing fact fails the line.  Only then are the triples walked,
    in ``uni.triples`` order, over their points, to name the witness."""
    comp = net.algebra.comp_atoms
    if all((1 << c) & comp[a][b] for a, b, c in net.facts):
        return CheckResult("label-composition-bound", True)
    out = net.rows[0]
    for trip in uni.triples:
        pts = set(trip)
        for x in pts:
            for y in pts:
                for z in pts:
                    a = out[x][y]
                    b = out[y][z]
                    c = out[x][z]
                    if not (1 << c) & comp[a][b]:
                        return CheckResult(
                            "label-composition-bound", False, f"{(x, y, z)}"
                        )
    return CheckResult("label-composition-bound", True)


# ---------------------------------------------------------------------------
# Replacement closure (non-permutation images of reachable triples)


def _replacement_generators() -> dict[tuple[int, int, int], int]:
    """Minimal number of one-step coordinate replacements realizing each
    non-permutation of a triple: a breadth-first search from the
    identity, the replacement of k by l sending i to l if i = k, else i.
    A product of replacements is no permutation, so every map it reaches
    but the identity is one."""
    gens = [tuple(l if i == k else i for i in COORDS) for k in COORDS for l in COORDS if k != l]
    dist: dict[tuple[int, int, int], int] = {(0, 1, 2): 0}
    frontier = [(0, 1, 2)]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = (f[g[0]], f[g[1]], f[g[2]])
                if h not in dist:
                    dist[h] = dist[f] + 1
                    nxt.append(h)
        frontier = nxt
    return {f: d for f, d in dist.items() if d}


REPLACEMENT_STEPS = _replacement_generators()


def check_replacement_closure(uni: BoundedUniverse) -> tuple[CheckResult, ...]:
    """Every non-permutation image of a reachable triple is reachable,
    given enough headroom: an image needing s replacements is demanded
    only of triples whose shortest witness leaves s steps below the
    bound.  Exclusion counts are reported.

    Decided by the replacement lemma, with no lookup in ``uni.triples``:
    the demanded images depend only on a triple's ``min_length`` h, so
    one count of the triples per h gives ``checked``, and ``excluded`` is
    the rest of the ``len(REPLACEMENT_STEPS)`` images per triple.

    Replacement lemma, for a universe made by
    :func:`~warel.trails.build_universe` over a carrier of
    :func:`~warel.suitable.build_suitable` from a WA atom structure: each
    f in ``REPLACEMENT_STEPS`` of s steps has its image (t[f0], t[f1],
    t[f2]) in ``uni.triples``, with ``min_length`` at most h + s, for
    every reached triple t with h + s <= bound.

    One step first: replacing k by l puts t[l] at k; m = 3 - k - l.  Let
    t's shortest spine, of length h < bound, end at e.  The walk's triple
    of a spine holds the classes of its three trails (the lemma of
    ``build_universe``).

    - If e is in E(k, l), an identity atom at m, rule (c) makes the
      spine's trails with pointers k and l one class: t[k] = t[l], and
      the image is t.
    - Otherwise e[m] is a diversity atom.  Let a = e[k].  Its domain and
      range are single identity atoms (as the no-None-loop part of the
      premise of :func:`build_pair_structure` proves), so the carrier
      holds (a~, dom a, a) and (a, rng a, a~), and, by the cycle
      transforms, (a, a, dom a) and (rng a, a, a).  One of these, e', has
      a at k and an identity atom at m: the third if m = 2, the fourth if
      m = 0, the second or the first if m = 1, as k is 0 or 2.  So e' != e is in ``S.neighbors[k][e]``,
      and the walk steps from t's spine to e' along k, to length h + 1.
      The stepped triple is t off k (rule (b)), and at k the parent's
      point at ``least_repoint[e'][k]``, l or m, as e' is in E(k, l).  If
      it is m, e' has identity atoms at l and m, so e' = (i, i, i) (two
      identity atoms of a cycle force the third), e[k] = i puts e in
      E(l, m), and t[m] = t[l] as in the first case.
    - The walk skips the step straight back, where e' is the element
      before e and the spine's last step is k.  Then the parent spine's
      triple p ends at e', in E(k, l), so p[k] = p[l], and t is p with k
      replaced: the image is p.

    Then by induction on s: an f of s + 1 steps in the search of
    ``REPLACEMENT_STEPS`` is some g of s steps followed by one
    replacement r, and f's image of t is r's image of g's, which is
    reached with ``min_length`` at most h + s < bound.  The reference
    loop over the images is ``ref_replacement_closure`` in the tests."""
    bound = uni.bound
    per_length = Counter(info.min_length for info in uni.triples.values())
    steps = REPLACEMENT_STEPS.values()
    checked = sum(n * sum(h + s <= bound for s in steps) for h, n in per_length.items())
    excluded = len(REPLACEMENT_STEPS) * len(uni.triples) - checked
    return (CheckResult("replacement-closure", True, f"checked={checked} excluded={excluded}"),)


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
    triangle.  The upper line is decided on ``net.facts``, which
    :func:`build_pair_structure` seeds from the carrier by the triangle
    lemma of :func:`~warel.trails.build_universe`, so the triangles are
    walked only on a failure, to name the witness; it is the decision of
    :func:`check_key_property` too.  That the atom images cover the unit
    disjointly is decided by the partition lemma of
    :func:`~warel.labelling.verify_representation`; its note and the
    ``|unit|`` count the labelled pairs, ``sum(net.sizes)``.  The
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
    pairs = sum(net.sizes)
    return net, (
        CheckResult("unit-symmetric-reflexive", net.is_symmetric_reflexive(), f"|unit|={pairs}"),
        CheckResult("atom-images-partition", all(net.sizes), f"{pairs} pairs"),
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
    witness.

    One walk over the triples checks each chain pair's label against its
    end's last atom and collects the chain pairs in one set; a failing
    line names the first mislabelled pair in that order.

    Chain-count lemma: once every chain pair carries its end's atom, a
    labelled pair lies in the chain of its own label exactly when it is a
    chain pair, so the pairs outside their label's chain number
    ``sum(net.sizes) - len(chain)``.

    Chain-reach lemma, for the network of :func:`build_pair_structure`
    under the premise of the replacement lemma
    (:func:`check_replacement_closure`): every labelled pair (u, v) whose
    points are both three below the bound is a chain pair, so the cover
    half holds with no walk over the pairs.  Proof: the network labels
    only pairs of points of reached triples.  By the pair-length lemma a
    triple t holding u at i and v at j has ``min_length`` max(lengths[u],
    lengths[v]) <= bound - 3.  f = (i, j, j) is a non-permutation, of at
    most three steps in ``REPLACEMENT_STEPS``, so by the replacement lemma
    (t[i], t[j], t[j]) = (u, v, v) is reached, and (u, v) is a chain
    pair.  The reference walk over the pairs is ``ref_chain_agreement``
    in the tests."""
    out = net.rows[0]
    empty: dict[int, int] = {}
    last = [t[2] for t in uni.S.elements]
    chain: set[tuple[int, int]] = set()
    add = chain.add
    for (x, y, _), info in uni.triples.items():
        if out.get(x, empty).get(y) != last[info.end]:
            return CheckResult("chain-agreement", False, f"{(x, y)} mislabelled")
        add((x, y))
    return CheckResult("chain-agreement", True, f"excluded={sum(net.sizes) - len(chain)}")
