"""The pair structure and the reduct checks against per-triple references.

``ref_build_pair_structure`` assigns each reachable triple's nine labels
one call at a time, recomputing the end element's labels and diagonal
agreements for every triple, and types each triple by
``ref_classify_triple_kind``, which sorts its points and builds its pair
kinds and lengths per triple; ``ref_key_property`` walks the 27 ordered
choices over every triple's points; ``ref_replacement_closure`` tests
every replacement of every triple against its headroom.  The checks
under test compute each end element's label entries once, type triples
without sorting, decide each distinct label matrix once and list the
demanded replacements once per shortest witness length; they must agree
with these on every result, witness and message.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import reduct
from warel.core import CheckResult, classify
from warel.enumerate import sample_structure, summarize
from warel.reduct import REPLACEMENT_STEPS, LabelDisagreement, PairStructure
from warel.suitable import COORDS, build_suitable
from warel.trails import BoundedUniverse, TripleInfo, build_universe


def _assign(ps, u, v, a):
    old = ps.label.get((u, v))
    if old is None:
        ps.label[(u, v)] = a
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
    lengths = {p: uni.by_id[p].length for p in distinct}
    w = max(distinct, key=lambda p: (lengths[p], p))
    others = [p for p in distinct if p != w]
    if ps.xi_of.get(w) == frozenset({(w, others[0]), (w, others[1])}):
        third = ref_pair_kind(ps, *sorted(others))
        if third == "descent":
            return "descent-descent"
        if third == "base":
            return "descent-base"
    return "unclassified"


def ref_replacement_closure(ps):
    uni = ps.universe
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
    ps = PairStructure(uni)
    conv = A.converse
    bit = lambda m: m.bit_length() - 1

    for trip, info in sorted(uni.triples.items()):
        t0, t1, t2 = uni.S.elements[info.end]
        u, v, w = trip
        _assign(ps, u, v, t2)
        _assign(ps, v, u, conv[t2])
        _assign(ps, v, w, t0)
        _assign(ps, w, v, conv[t0])
        _assign(ps, u, w, t1)
        _assign(ps, w, u, conv[t1])
        du = A.dom_atom(t1)
        if du != A.dom_atom(t2):
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
        _assign(ps, u, u, bit(du))
        dv = A.rng_atom(t2)
        if dv != A.dom_atom(t0):
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
        _assign(ps, v, v, bit(dv))
        dw = A.rng_atom(t0)
        if dw != A.rng_atom(t1):
            raise LabelDisagreement(f"diagonal label mismatch at {trip}")
        _assign(ps, w, w, bit(dw))

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
                if k != l and not (1 << t[3 - k - l]) & ident:
                    ps.base_pairs.add((base[k], base[l]))
    for trip in sorted(uni.triples):
        ps.lem9_kind[trip] = ref_classify_triple_kind(ps, trip)
    return ps


def ref_key_property(A, ps):
    comp = A.comp_atoms
    for trip in ps.universe.triples:
        pts = set(trip)
        for x in pts:
            for y in pts:
                for z in pts:
                    a = ps.label[(x, y)]
                    b = ps.label[(y, z)]
                    c = ps.label[(x, z)]
                    if not (1 << c) & comp[a][b]:
                        return CheckResult("label-composition-bound", False, f"{(x, y, z)}")
    return CheckResult("label-composition-bound", True)


def _outcome(build, A, uni):
    """The builder's fields, or the type and message of what it raised."""
    try:
        ps = build(A, uni)
    except Exception as exc:  # compared, never swallowed: both sides must match
        return type(exc).__name__, str(exc)
    return (
        list(ps.label.items()),
        ps.identity_pairs,
        ps.xi_pairs,
        ps.base_pairs,
        list(ps.lem9_kind.items()),
    )


@pytest.fixture(scope="module")
def inputs(a2, pentagon):
    _, census = summarize(3, mod_iso=True)
    out = []
    for A in (a2, pentagon, *census):
        uni = build_universe(build_suitable(A), 3)
        out.append((A, uni, reduct.build_pair_structure(A, uni)))
    return out


def test_pair_structure_matches_reference(inputs):
    for A, uni, ps in inputs:
        ref = ref_build_pair_structure(A, uni)
        assert list(ps.label.items()) == list(ref.label.items())
        assert ps.identity_pairs == ref.identity_pairs
        assert ps.xi_pairs == ref.xi_pairs
        assert ps.base_pairs == ref.base_pairs
        assert list(ps.lem9_kind.items()) == list(ref.lem9_kind.items())


def test_triple_kinds_cover_every_type(inputs):
    # the census and a2/pentagon at depth 3 meet every Lemma 9 type, so
    # the comparison above tests each branch of the classification
    seen = {k for _, _, ps in inputs for k in ps.lem9_kind.values()}
    assert set(reduct.LEM9_KINDS) <= seen


def test_replacement_closure_matches_reference(inputs):
    for _, _, ps in inputs:
        got = reduct.check_replacement_closure(ps)
        assert got == ref_replacement_closure(ps)
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
            ps = PairStructure(replace(uni, triples=triples))
            got = reduct.check_replacement_closure(ps)
            assert got == ref_replacement_closure(ps), gone
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
    ps = reduct.build_pair_structure(A, uni)
    ref = ref_build_pair_structure(A, uni)
    assert list(ps.lem9_kind.items()) == list(ref.lem9_kind.items())
    assert reduct.check_replacement_closure(ps) == ref_replacement_closure(ps)


def test_pair_disagreement_matches_reference(inputs):
    # moving a triple to another end element relabels its pairs, which
    # clash with the labels other triples gave them
    rng = random.Random(7)
    raised = 0
    for A, uni, _ in inputs:
        ends = sorted(uni.orbit_sets)
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
    for A, uni, ps in inputs:
        assert reduct.check_key_property(A, ps) == ref_key_property(A, ps)
        pairs = list(ps.label)
        for _ in range(40):
            pr = rng.choice(pairs)
            old = ps.label[pr]
            ps.label[pr] = rng.randrange(A.atom_count)
            try:
                got = reduct.check_key_property(A, ps)
                assert got == ref_key_property(A, ps), pr
            finally:
                ps.label[pr] = old
            failing += not got.holds
    assert failing > 100
