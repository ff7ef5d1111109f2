"""The pair stage and the reduct checks against per-triple references.

``ref_build_pair_structure`` assigns each reachable triple's nine labels
one call at a time, recomputing the end element's labels and diagonal
agreements for every triple; ``ref_pair_split`` then builds the whole
identity, descent and base pair sets and types each triple by
``ref_classify_triple_kind``, which sorts its points and builds its pair
kinds and lengths per triple, and ``ref_check_pair_partition`` decides
the partition lines on those sets; ``ref_key_property`` walks the 27
ordered choices over every triple's points; ``ref_replacement_closure``
tests every replacement of every triple against its headroom.  The
checks under test compute each end element's label entries once, read
the pair kinds off the universe's per-point lists inside the partition
check, type triples without sorting (``reduct._typed`` must type
exactly the triples the reference does not call "unclassified"), decide
each distinct label matrix once and list the demanded replacements
once per shortest witness length; they must agree with these on every
result, witness and message, also on universes whose lists were
corrupted.

``ref_check_reduct_closure`` and ``ref_check_reduct_isomorphism`` walk
every element of the reduct's carrier (``ref_carrier``: every join of
2-blocks) and every pair of source-algebra elements through the element
tables.  The checks under test decide ``carrier-two-dimensional`` and
``operations-closed`` by their lemma and the isomorphism lines on the
atoms, and must give the same lines and name the same first witness.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import reduct
from warel.core import CheckResult, classify, iter_bits
from warel.enumerate import summarize
from warel.reduct import REPLACEMENT_STEPS, LabelDisagreement
from warel.relset import Network
from warel.suitable import COORDS, build_suitable
from warel.trails import BoundedUniverse, TripleInfo, build_universe

from test_enumerate_reference import sample_structure
from test_trails_reference import triples_by_end


def _assign(label, u, v, a):
    old = label.get((u, v))
    if old is None:
        label[(u, v)] = a
    elif old != a:
        raise LabelDisagreement(f"pair ({u},{v}) labelled {old} and {a}")


def ref_pair_kind(ps, u, v):
    if u == v:
        return "identity"
    hit_xi = (u, v) in ps.xi_pairs
    hit_base = (u, v) in ps.base_pairs
    if hit_xi and not hit_base:
        return "descent"
    if hit_base and not hit_xi:
        return "base"
    return "ambiguous"


def ref_classify_triple_kind(ps, trip):
    uni = ps.universe
    distinct = sorted(set(trip))
    if len(distinct) == 1:
        return "single-point"
    if len(distinct) == 2:
        p, q = distinct
        kind = ref_pair_kind(ps, p, q)
        if kind == "descent":
            return "doubled-descent"
        if kind == "base":
            return "doubled-base"
        return "unclassified"
    kinds = {(p, q): ref_pair_kind(ps, p, q) for p in distinct for q in distinct if p < q}
    if all(k == "base" for k in kinds.values()):
        return "three-base"
    lengths = {p: uni.lengths[p] for p in distinct}
    w = max(distinct, key=lambda p: (lengths[p], p))
    others = [p for p in distinct if p != w]
    if ps.xi_of.get(w) == frozenset({(w, others[0]), (w, others[1])}):
        third = ref_pair_kind(ps, *sorted(others))
        if third == "descent":
            return "descent-descent"
        if third == "base":
            return "descent-base"
    return "unclassified"


def ref_replacement_closure(uni):
    checked = excluded = 0
    bad = None
    for trip, info in uni.triples.items():
        for f, steps in REPLACEMENT_STEPS.items():
            if info.min_length + steps > uni.bound:
                excluded += 1
                continue
            image = tuple(trip[f[i]] for i in COORDS)
            checked += 1
            if image not in uni.triples:
                bad = (trip, f, image)
                break
        if bad:
            break
    detail = f"{bad}" if bad else f"checked={checked} excluded={excluded}"
    return (CheckResult("replacement-closure", bad is None, detail),)


def ref_build_pair_structure(A, uni):
    label = {}
    conv = A.converse
    bit = lambda m: m.bit_length() - 1

    for trip, info in sorted(uni.triples.items()):
        t0, t1, t2 = uni.S.elements[info.end]
        u, v, w = trip
        _assign(label, u, v, t2)
        _assign(label, v, u, conv[t2])
        _assign(label, v, w, t0)
        _assign(label, w, v, conv[t0])
        _assign(label, u, w, t1)
        _assign(label, w, u, conv[t1])
        du = A.dom_atom(t1)
        if du != A.dom_atom(t2):
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
        _assign(label, u, u, bit(du))
        dv = A.rng_atom(t2)
        if dv != A.dom_atom(t0):
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
        _assign(label, v, v, bit(dv))
        dw = A.rng_atom(t0)
        if dw != A.rng_atom(t1):
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
        _assign(label, w, w, bit(dw))
    return Network(A, label)


def ref_pair_split(A, uni, label):
    """Every pair and triple kind of a labelled universe, as whole sets:
    the loops, each point's descent pairs to the other coordinates of
    its own triple, the base pairs and the type of every triple in
    sorted order."""
    ps = SimpleNamespace(
        universe=uni, label=label, xi_of={}, identity_pairs=set(), xi_pairs=set(),
        base_pairs=set(), lem9_kind={},
    )
    for (u, v) in label:
        if u == v:
            ps.identity_pairs.add((u, v))
    for pid, trip in enumerate(uni.own_triples):
        if uni.lengths[pid] == 1:
            ps.xi_of[pid] = frozenset()
            continue
        k = uni.pointers[pid]
        ps.xi_of[pid] = frozenset((pid, trip[l]) for l in COORDS if l != k)
    for pid, xs in ps.xi_of.items():
        for pr in xs:
            ps.xi_pairs.add(pr)
            ps.xi_pairs.add((pr[1], pr[0]))
    ident = A.identity
    for t, base in zip(uni.S.elements, uni.base_triples):
        for k in COORDS:
            for l in COORDS:
                if k != l and not (1 << t[3 - k - l]) & ident:
                    ps.base_pairs.add((base[k], base[l]))
    for trip in sorted(uni.triples):
        ps.lem9_kind[trip] = ref_classify_triple_kind(ps, trip)
    return ps


def ref_check_pair_partition(ps):
    pairs = set(ps.label)
    parts = [ps.identity_pairs, ps.xi_pairs, ps.base_pairs]
    union = set().union(*parts)
    overlaps = (
        (ps.identity_pairs & ps.xi_pairs)
        | (ps.identity_pairs & ps.base_pairs)
        | (ps.xi_pairs & ps.base_pairs)
    )
    unclassified = [t for t, k in ps.lem9_kind.items() if k == "unclassified"]
    lengths = ps.universe.lengths
    bad = next(
        ((u, v) for xs in ps.xi_of.values() for (u, v) in xs if lengths[v] >= lengths[u]), None
    )
    return (
        CheckResult(
            "pair-partition-exact",
            union == pairs and not overlaps,
            f"|pairs|={len(pairs)} id={len(ps.identity_pairs)} "
            f"descent={len(ps.xi_pairs)} base={len(ps.base_pairs)}",
        ),
        CheckResult(
            "triple-types-total",
            not unclassified,
            f"{len(ps.lem9_kind)} triples classified"
            if not unclassified
            else f"unclassified {unclassified[:3]}",
        ),
        CheckResult("descent-pairs-shorten", bad is None, str(bad or "")),
    )


# The six Lemma 9 types that ``ref_classify_triple_kind`` names.
LEM9_KINDS = (
    "descent-descent",
    "descent-base",
    "three-base",
    "doubled-descent",
    "doubled-base",
    "single-point",
)


def _descent(uni):
    """Each point paired with each of its descent partners, both ways round."""
    return {
        pr
        for pid in range(len(uni.own_triples))
        for q in reduct._partners(uni, pid)
        for pr in ((pid, q), (q, pid))
    }


def _kinds(A, uni, ref):
    """Whether ``reduct._typed`` types each reachable triple, and whether
    the reference gives it a type, in sorted order."""
    descent, base = _descent(uni), reduct._base_pairs(A, uni)
    got = [(t, reduct._typed(uni, descent, base, t)) for t in sorted(uni.triples)]
    return got, [(t, kind != "unclassified") for t, kind in ref.lem9_kind.items()]


def ref_key_property(A, uni, label):
    comp = A.comp_atoms
    for trip in uni.triples:
        pts = set(trip)
        for x in pts:
            for y in pts:
                for z in pts:
                    a = label[(x, y)]
                    b = label[(y, z)]
                    c = label[(x, z)]
                    if not (1 << c) & comp[a][b]:
                        return CheckResult("label-composition-bound", False, f"{(x, y, z)}")
    return CheckResult("label-composition-bound", True)


def ref_carrier(S):
    blocks = sorted(set(S.blocks[2].values()))
    out = []
    for mask in range(1 << len(blocks)):
        x = 0
        for i in iter_bits(mask):
            x |= blocks[i]
        out.append(x)
    return sorted(set(out))


def ref_check_reduct_closure(S):
    ra = reduct.ra_reduct(S)
    carrier = ref_carrier(S)
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


def ref_check_reduct_isomorphism(A, S):
    ra = reduct.ra_reduct(S)
    out = []

    def phi(xm):
        acc = 0
        for i, t in enumerate(S.elements):
            if (1 << t[2]) & xm:
                acc |= 1 << i
        return acc

    els = list(A.elements())
    images = [phi(x) for x in els]
    out.append(CheckResult("injective", len(set(images)) == len(images)))
    out.append(CheckResult("surjective-onto-reduct", sorted(set(images)) == ref_carrier(S)))
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
        if images[A.conv_el(x)] != ra.converse(images[x]):
            bad = ("converse", x)
            break
        for y in els:
            if images[A.compose(x, y)] != ra.compose(images[x], images[y]):
                bad = ("compose", x, y)
                break
        if bad:
            break
    out.append(CheckResult("operations-preserved", bad is None, str(bad or "")))
    return tuple(out)


def _outcome(build, A, uni):
    """The builder's labels, or the type and message of what it raised."""
    try:
        net = build(A, uni)
    except Exception as exc:  # compared, never swallowed: both sides must match
        return type(exc).__name__, str(exc)
    return list(net.label.items())


@pytest.fixture(scope="module")
def census():
    return summarize(3, mod_iso=True)[1]


@pytest.fixture(scope="module")
def inputs(a2, pentagon, census):
    out = []
    for A in (a2, pentagon, *census):
        uni = build_universe(build_suitable(A), 3)
        out.append((A, uni, reduct.build_pair_structure(A, uni)))
    return out


def test_pair_structure_matches_reference(inputs):
    for A, uni, net in inputs:
        assert list(net.label.items()) == list(ref_build_pair_structure(A, uni).label.items())
        ref = ref_pair_split(A, uni, net.label)
        assert _descent(uni) == ref.xi_pairs
        assert reduct._base_pairs(A, uni) == ref.base_pairs
        got, want = _kinds(A, uni, ref)
        assert got == want
        assert reduct.check_pair_partition(uni, net) == ref_check_pair_partition(ref)


def test_triple_kinds_cover_every_type(inputs):
    # the census and a2/pentagon at depth 3 meet every Lemma 9 type, so
    # the comparison above tests each branch of the typing
    seen = {k for A, uni, net in inputs for k in ref_pair_split(A, uni, net.label).lem9_kind.values()}
    assert set(LEM9_KINDS) <= seen


def _corrupt_lists(uni, rng):
    """A copy of uni with one point's pointer, length or own triple changed."""
    kind = rng.choice(["pointer", "length", "own"])
    pid = rng.randrange(len(uni.lengths))
    if kind == "pointer":
        pointers = list(uni.pointers)
        pointers[pid] = rng.choice([k for k in COORDS if k != pointers[pid]])
        return replace(uni, pointers=pointers)
    if kind == "length":
        lengths = list(uni.lengths)
        lengths[pid] = rng.choice([n for n in range(1, uni.bound + 1) if n != lengths[pid]])
        return replace(uni, lengths=lengths)
    own = list(uni.own_triples)
    trip = list(own[pid])
    trip[rng.choice(COORDS)] = rng.randrange(len(uni.lengths))
    own[pid] = tuple(trip)
    return replace(uni, own_triples=own)


def test_pair_partition_matches_reference_on_corrupted_lists(inputs):
    # each of the three partition lines fails on some corrupted copy,
    # and every line, verdict and witness, is the reference's
    rng = random.Random(21)
    failed = set()
    for A, uni, net in inputs:
        for _ in range(12):
            bad = _corrupt_lists(uni, rng)
            ref = ref_pair_split(A, bad, net.label)
            kinds, want = _kinds(A, bad, ref)
            assert kinds == want
            got = reduct.check_pair_partition(bad, net)
            assert got == ref_check_pair_partition(ref)
            failed |= {c.name for c in got if not c.holds}
    assert failed == {"pair-partition-exact", "triple-types-total", "descent-pairs-shorten"}


def test_replacement_closure_matches_reference(inputs):
    for _, uni, _ in inputs:
        got = reduct.check_replacement_closure(uni)
        assert got == ref_replacement_closure(uni)
        assert got[0].holds


def test_replacement_closure_names_the_reference_witness(inputs):
    # deleting a reachable triple makes every triple that demands it as
    # an image fail; both walks must name the same first failure
    rng = random.Random(5)
    failing = 0
    for A, uni, _ in inputs:
        for _ in range(8):
            gone = rng.choice(sorted(uni.triples))
            triples = {t: info for t, info in uni.triples.items() if t != gone}
            bad = replace(uni, triples=triples)
            got = reduct.check_replacement_closure(bad)
            assert got == ref_replacement_closure(bad), gone
            failing += not got[0].holds
    assert failing > 20


@settings(max_examples=15, deadline=None)
@given(
    which=st.sampled_from(["a2", "pentagon", "sample"]),
    atoms=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bound=st.integers(min_value=1, max_value=4),
)
def test_kinds_and_replacements_match_reference_on_draws(a2, pentagon, which, atoms, seed, bound):
    A = {"a2": a2, "pentagon": pentagon}.get(which) or sample_structure(
        atoms, random.Random(seed)
    )
    if not classify(A).is_wa:
        return
    uni = build_universe(build_suitable(A), bound)
    net = reduct.build_pair_structure(A, uni)
    ref = ref_pair_split(A, uni, ref_build_pair_structure(A, uni).label)
    got, want = _kinds(A, uni, ref)
    assert got == want
    assert reduct.check_replacement_closure(uni) == ref_replacement_closure(uni)
    assert reduct.check_pair_partition(uni, net) == ref_check_pair_partition(ref)


def test_pair_disagreement_matches_reference(inputs):
    # moving a triple to another end element relabels its pairs, which
    # clash with the labels other triples gave them
    rng = random.Random(7)
    raised = 0
    for A, uni, _ in inputs:
        ends = sorted(triples_by_end(uni))
        for _ in range(10):
            trip = rng.choice(sorted(uni.triples))
            info = uni.triples[trip]
            triples = dict(uni.triples)
            triples[trip] = TripleInfo(rng.choice(ends), info.min_length)
            moved = replace(uni, triples=triples)
            got = _outcome(reduct.build_pair_structure, A, moved)
            assert got == _outcome(ref_build_pair_structure, A, moved)
            raised += got[0] == "LabelDisagreement"
    assert raised > 50


def test_diagonal_mismatch_matches_reference(two_identities):
    # every atom triple as the end of one triple over points (0, 1, 2),
    # (0, 0, 1) or (0, 1, 1), and every pair of them as the ends of
    # (0, 1, 2) and (0, 3, 4), which share the loop (0, 0): with two
    # identity atoms the diagonal labels of many disagree, and a
    # diagonal label can clash with one given to the same pair before
    A = two_identities
    n = A.atom_count
    elements = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    S = replace(build_suitable(A), elements=tuple(elements))
    ends = range(len(elements))
    cases = [{trip: e} for trip in ((0, 1, 2), (0, 0, 1), (0, 1, 1)) for e in ends]
    cases += [{(0, 1, 2): e, (0, 3, 4): f} for e in ends for f in ends]
    seen = set()
    for case in cases:
        uni = BoundedUniverse(S, 1, triples={t: TripleInfo(e, 1) for t, e in case.items()})
        got = _outcome(reduct.build_pair_structure, A, uni)
        assert got == _outcome(ref_build_pair_structure, A, uni), case
        if got[0] == "LabelDisagreement":
            seen.add(got[1].split(" at ")[0] if "diagonal" in got[1] else "pair")
    assert seen == {"diagonal label mismatch", "pair"}


def test_key_property_matches_reference(inputs):
    rng = random.Random(11)
    failing = 0
    for A, uni, net in inputs:
        label = net.label
        assert reduct.check_key_property(uni, net) == ref_key_property(A, uni, label)
        pairs = list(label)
        for _ in range(40):
            pr = rng.choice(pairs)
            old = label[pr]
            label[pr] = rng.randrange(A.atom_count)
            try:
                got = reduct.check_key_property(uni, net)
                assert got == ref_key_property(A, uni, label), pr
            finally:
                label[pr] = old
            failing += not got.holds
    assert failing > 100


def _reduct_results(A, S):
    return repr((reduct.check_reduct_closure(S), reduct.check_reduct_isomorphism(A, S)))


def _reference_results(A, S):
    return repr((ref_check_reduct_closure(S), ref_check_reduct_isomorphism(A, S)))


def test_reduct_checks_match_reference(a1, a2, pentagon, two_identities, census):
    for A in (a1, a2, pentagon, two_identities, *census):
        S = build_suitable(A)
        assert _reduct_results(A, S) == _reference_results(A, S), A.names


def _corrupt(A, S, rng):
    """S with one changed tkey entry, one flipped e_masks bit, or one
    element whose last coordinate moved, sometimes past the last atom."""
    kind = rng.choice(["tkey", "e_masks", "third"])
    i = rng.randrange(S.size)
    k = rng.choice(COORDS)
    if kind == "tkey":
        row = list(S.tkey[k])
        row[i] = rng.choice([a for a in range(A.atom_count + 1) if a != row[i]])
        return replace(S, tkey=tuple(tuple(row) if j == k else S.tkey[j] for j in COORDS))
    if kind == "e_masks":
        masks = [list(r) for r in S.e_masks]
        masks[k][rng.choice(COORDS)] ^= 1 << i
        return replace(S, e_masks=tuple(map(tuple, masks)))
    elements = list(S.elements)
    t = elements[i]
    elements[i] = (t[0], t[1], rng.choice([a for a in range(A.atom_count + 1) if a != t[2]]))
    return replace(S, elements=tuple(elements))


def test_reduct_checks_match_reference_on_corruptions(a1, a2, pentagon, two_identities, census):
    # every line that can fail fails on some draw, and each failing
    # operation line names the reference's first witness
    rng = random.Random(18)
    failed = set()
    witnesses = set()
    for A in (a1, a2, pentagon, two_identities, *census):
        S = build_suitable(A)
        for _ in range(24):
            bad = _corrupt(A, S, rng)
            got = _reduct_results(A, bad)
            assert got == _reference_results(A, bad), (A.names, bad)
            for c in (*reduct.check_reduct_closure(bad), *reduct.check_reduct_isomorphism(A, bad)):
                if not c.holds:
                    failed.add(c.name)
                    witnesses.add(c.detail.split(",")[0])
    assert failed == {
        "identity-two-dimensional",
        "injective",
        "surjective-onto-reduct",
        "boolean-preserved",
        "identity-preserved",
        "operations-preserved",
    }
    assert {"('converse'", "('compose'"} <= witnesses
