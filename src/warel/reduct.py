"""Relation-algebraic reducts and the final relativized representation.

The two-dimensional elements of the complex algebra (fixpoints of the
last cylindrification) carry relation-algebra operations defined by
diagonal-guarded cylindrification terms; the source algebra embeds
onto them by sending an element to the set of carrier triples whose
last coordinate sits below it.

Over a bounded trail universe, every ordered pair of points occurring
in a reachable coordinate triple gets a well-defined atom label, the
pair set splits into identity, descent and base pairs, and the label
map, a :class:`~warel.relset.Network`, turns algebra elements into
relations over points.  The resulting map is checked to be a Boolean
embedding respecting identity, converse, and composition up to the
frontier, which is the bounded form of the full representation
theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    def carrier(self) -> list[int]:
        blocks = sorted(set(self.cm.S.blocks[2].values()))
        out = []
        for mask in range(1 << len(blocks)):
            x = 0
            for i in iter_bits(mask):
                x |= blocks[i]
            out.append(x)
        return sorted(set(out))

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


def check_reduct_closure(S: SuitableStructure) -> tuple[CheckResult, ...]:
    ra = ra_reduct(S)
    carrier = ra.carrier()
    out = []
    ok = all(ra.is_two_dim(x) for x in carrier)
    out.append(CheckResult("carrier-two-dimensional", ok))
    ok = ra.is_two_dim(ra.identity)
    out.append(CheckResult("identity-two-dimensional", ok))
    bad = None
    for x in carrier:
        if not ra.is_two_dim(ra.converse(x)):
            bad = ("converse", x)
            break
        for y in carrier:
            if not ra.is_two_dim(ra.compose(x, y)):
                bad = ("compose", x, y)
                break
        if bad:
            break
    out.append(CheckResult("operations-closed", bad is None, str(bad or "")))
    return tuple(out)


def check_reduct_isomorphism(A: AtomStructure, S: SuitableStructure) -> tuple[CheckResult, ...]:
    """The map sending x to the triples with last coordinate below x is
    an isomorphism onto the two-dimensional reduct: bijective, Boolean,
    and preserving identity, converse, composition.  Checked over all
    element pairs, so capped with the composition table at
    ``TABLE_GUARD`` atoms."""
    C, V = A.comp_table, A.conv_table
    ra = ra_reduct(S)
    out: list[CheckResult] = []

    def phi(xm: int) -> int:
        acc = 0
        for i, t in enumerate(S.elements):
            if (1 << t[2]) & xm:
                acc |= 1 << i
        return acc

    els = list(A.elements())
    images = [phi(x) for x in els]
    out.append(CheckResult("injective", len(set(images)) == len(images)))
    out.append(
        CheckResult(
            "surjective-onto-reduct", sorted(set(images)) == ra.carrier()
        )
    )
    # els is every mask in order, so images[m] == phi(m) for any element m
    out.append(
        CheckResult(
            "boolean-preserved",
            all(
                images[x | y] == images[x] | images[y]
                and images[A.full & ~x] == S.full_mask & ~images[x]
                for x in els
                for y in els
            ),
        )
    )
    out.append(CheckResult("identity-preserved", images[A.identity] == ra.identity))
    bad = None
    for x in els:
        if images[V[x]] != ra.converse(images[x]):
            bad = ("converse", x)
            break
        cx = C[x]
        for y in els:
            if images[cx[y]] != ra.compose(images[x], images[y]):
                bad = ("compose", x, y)
                break
        if bad:
            break
    out.append(CheckResult("operations-preserved", bad is None, str(bad or "")))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pair labels over a bounded universe


class LabelDisagreement(RuntimeError):
    """Two witnessing trails assigned different atoms to one pair."""


@dataclass
class PairStructure:
    universe: BoundedUniverse
    label: dict[tuple[int, int], int] = field(default_factory=dict)
    identity_pairs: set[tuple[int, int]] = field(default_factory=set)
    xi_pairs: set[tuple[int, int]] = field(default_factory=set)
    base_pairs: set[tuple[int, int]] = field(default_factory=set)
    lem9_kind: dict[tuple[int, int, int], str] = field(default_factory=dict)

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(self.label)

    @cached_property
    def xi_of(self) -> dict[int, frozenset[tuple[int, int]]]:
        """Each point's pairs to the other repointings of its own trail,
        read off the recorded triple of that trail's spine."""
        uni = self.universe
        out: dict[int, frozenset[tuple[int, int]]] = {}
        for pt, trip in zip(uni.by_id, uni.own_triples):
            if pt.length == 1:
                out[pt.pid] = frozenset()
                continue
            k = pt.trail.pointer
            out[pt.pid] = frozenset((pt.pid, trip[l]) for l in COORDS if l != k)
        return out


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


def build_pair_structure(A: AtomStructure, uni: BoundedUniverse) -> PairStructure:
    """Labels for every occurring point pair, the three-way pair split,
    and the six-type classification of every reachable triple.

    Exact over every reachable triple, in sorted order; the nine label
    entries and three diagonal agreements are computed once per carrier
    element of ``uni.orbit_sets``, and each triple only stores or
    compares its pairs' labels.  A pair given two labels, or a triple
    whose diagonal labels disagree, raises :class:`LabelDisagreement`.
    """
    ps = PairStructure(uni)
    label = ps.label
    rows = {t: _label_entries(A, uni.S.elements[t]) for t in uni.orbit_sets}
    ordered = sorted(uni.triples.items())

    for trip, info in ordered:
        entries, agree = rows[info.end]
        for i, j, a in entries:
            u, v = trip[i], trip[j]
            old = label.setdefault((u, v), a)
            if old != a:
                raise LabelDisagreement(f"pair ({u},{v}) labelled {old} and {a}")
        if not agree:
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")

    for (u, v) in ps.label:
        if u == v:
            ps.identity_pairs.add((u, v))

    for pid, xs in ps.xi_of.items():
        for pr in xs:
            ps.xi_pairs.add(pr)
            ps.xi_pairs.add((pr[1], pr[0]))

    ident = A.identity
    for t, base in zip(uni.S.elements, uni.base_triples):
        for k in COORDS:
            for l in COORDS:
                if k == l:
                    continue
                m = 3 - k - l
                if (1 << t[m]) & ident:
                    continue
                ps.base_pairs.add((base[k], base[l]))

    lengths = [len(pt.trail) for pt in uni.by_id]
    for trip, _ in ordered:
        ps.lem9_kind[trip] = _classify_triple_kind(ps, trip, lengths)
    return ps


def _pair_kind(ps: PairStructure, u: int, v: int) -> str:
    if u == v:
        return "identity"
    hit_xi = (u, v) in ps.xi_pairs
    hit_base = (u, v) in ps.base_pairs
    if hit_xi and not hit_base:
        return "descent"
    if hit_base and not hit_xi:
        return "base"
    return "ambiguous"


_DOUBLED = {"descent": "doubled-descent", "base": "doubled-base"}
_THIRD = {"descent": "descent-descent", "base": "descent-base"}


def _classify_triple_kind(
    ps: PairStructure, trip: tuple[int, int, int], lengths: list[int]
) -> str:
    """The Lemma 9 type of a reachable triple.

    A pair's kind is symmetric, since ``xi_pairs`` and ``base_pairs``
    hold each pair in both directions, so the points are read in
    coordinate order and never sorted.  Three distinct points are a
    descent triple when the longest (ties broken by the larger pid;
    ``lengths[pid]`` is the point's trail length) has exactly the other
    two as its descent partners; the kind of the remaining pair then
    names the type.
    """
    u, v, w = trip
    if u == v or v == w or u == w:
        if u == v == w:
            return "single-point"
        kind = _pair_kind(ps, u, w) if u == v else _pair_kind(ps, u, v)
        return _DOUBLED.get(kind, "unclassified")
    # kinds[i]: the pair of the two points other than trip[i]
    kinds = (_pair_kind(ps, v, w), _pair_kind(ps, u, w), _pair_kind(ps, u, v))
    if kinds[0] == kinds[1] == kinds[2] == "base":
        return "three-base"
    ku, kv, kw = (lengths[u], u), (lengths[v], v), (lengths[w], w)
    if ku > kv and ku > kw:
        top, a, b, third = u, v, w, kinds[0]
    elif kv > kw:
        top, a, b, third = v, u, w, kinds[1]
    else:
        top, a, b, third = w, u, v, kinds[2]
    if ps.xi_of.get(top) == {(top, a), (top, b)}:
        return _THIRD.get(third, "unclassified")
    return "unclassified"


LEM9_KINDS = (
    "descent-descent",
    "descent-base",
    "three-base",
    "doubled-descent",
    "doubled-base",
    "single-point",
)


def check_pair_partition(ps: PairStructure) -> tuple[CheckResult, ...]:
    out = []
    pairs = ps.pairs
    parts = [ps.identity_pairs, ps.xi_pairs, ps.base_pairs]
    union = set().union(*parts)
    overlaps = (
        (ps.identity_pairs & ps.xi_pairs)
        | (ps.identity_pairs & ps.base_pairs)
        | (ps.xi_pairs & ps.base_pairs)
    )
    out.append(
        CheckResult(
            "pair-partition-exact",
            union == pairs and not overlaps,
            f"|pairs|={len(pairs)} id={len(ps.identity_pairs)} "
            f"descent={len(ps.xi_pairs)} base={len(ps.base_pairs)}",
        )
    )
    unclassified = [t for t, k in ps.lem9_kind.items() if k == "unclassified"]
    out.append(
        CheckResult(
            "triple-types-total",
            not unclassified,
            f"{len(ps.lem9_kind)} triples classified"
            if not unclassified
            else f"unclassified {unclassified[:3]}",
        )
    )
    uni = ps.universe
    bad = next(
        (
            (u, v)
            for xs in ps.xi_of.values()
            for (u, v) in xs
            if uni.by_id[v].length >= uni.by_id[u].length
        ),
        None,
    )
    out.append(CheckResult("descent-pairs-shorten", bad is None, str(bad or "")))
    return tuple(out)


def _matrix_holds(comp: list[list[int]], m: tuple[int, ...]) -> bool:
    # m[3 * i + j] labels (trip[i], trip[j]); every index choice (x, y, z)
    # needs m[x][z] <= m[x][y] ; m[y][z]
    return all(
        (1 << m[3 * x + z]) & comp[m[3 * x + y]][m[3 * y + z]]
        for x in COORDS
        for y in COORDS
        for z in COORDS
    )


def check_key_property(A: AtomStructure, ps: PairStructure) -> CheckResult:
    """label(x,y) ; label(y,z) covers label(x,z) on every permutation of
    every reachable triple.

    Exact over every reachable triple, each reading its nine labels from
    ``ps.label``; each distinct 3x3 label matrix is decided once over
    its 27 index choices, which range over the same ordered (x, y, z)
    as the triple's points.  The first failing triple, in
    ``uni.triples`` order, is walked again over its points only to name
    the witness."""
    comp = A.comp_atoms
    label = ps.label
    decided: dict[tuple[int, ...], bool] = {}
    for trip in ps.universe.triples:
        u, v, w = trip
        m = (
            label[(u, u)], label[(u, v)], label[(u, w)],
            label[(v, u)], label[(v, v)], label[(v, w)],
            label[(w, u)], label[(w, v)], label[(w, w)],
        )
        ok = decided.get(m)
        if ok is None:
            ok = decided[m] = _matrix_holds(comp, m)
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


def check_replacement_closure(ps: PairStructure) -> tuple[CheckResult, ...]:
    """Every non-permutation image of a reachable triple is reachable,
    given enough headroom: an image needing k replacements is demanded
    only of triples whose shortest witness leaves k steps below the
    bound.  Exclusion counts are reported.

    The demanded replacements depend only on a triple's shortest
    witness length h, so they are listed once per h, in
    ``REPLACEMENT_STEPS`` order; a frontier triple demands none."""
    uni = ps.universe
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
    A: AtomStructure, ps: PairStructure
) -> tuple[Network, tuple[CheckResult, ...]]:
    """Build the point representation and verify it.

    Exactly checked: the unit is symmetric and reflexive on its field,
    atom images partition it, identity goes to the diagonal, converse
    to relational inverse, and composition upper containment (composed
    images stay below the image of the composition) over every
    triangle.  The reverse containment is checked for pairs whose
    shortest witness leaves one step of headroom (the middle point
    comes from a one-step trail extension); exclusions are counted.
    """
    net = Network(A, ps.label)
    uni = ps.universe
    total = sum(map(len, net.images))
    bad = net.upper_violation()
    checked, excluded, missing = net.lower_scan(
        lambda u, v: uni.pair_min_length[(u, v)] + 1 > uni.bound
    )
    return net, (
        CheckResult(
            "unit-symmetric-reflexive", net.is_symmetric_reflexive(), f"|unit|={len(net.unit)}"
        ),
        CheckResult(
            "atom-images-partition", all(net.images) and total == len(net.unit), f"{total} pairs"
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


def check_chain_agreement(
    A: AtomStructure, ps: PairStructure
) -> CheckResult:
    """Pairs in coordinate positions (0, 1) of reachable triples carry
    exactly the label of the end's last coordinate, and cover every
    label on pairs with three steps of headroom (a coordinate swap
    costs three replacements)."""
    uni = ps.universe
    chain: dict[int, set[tuple[int, int]]] = {a: set() for a in range(A.atom_count)}
    for trip, info in uni.triples.items():
        t2 = uni.S.elements[info.end][2]
        chain[t2].add((trip[0], trip[1]))
    for a in range(A.atom_count):
        for pr in chain[a]:
            if ps.label.get(pr) != a:
                return CheckResult("chain-agreement", False, f"{pr} mislabelled")
    excluded = 0
    for pr, a in ps.label.items():
        if pr in chain[a]:
            continue
        if uni.pair_min_length[pr] + 3 <= uni.bound:
            return CheckResult("chain-agreement", False, f"{pr} unreachable")
        excluded += 1
    return CheckResult("chain-agreement", True, f"excluded={excluded}")
