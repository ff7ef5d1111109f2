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
pair stage under test writes each point's labels once and decides its
premise from those writes: on a carrier keyed by its coordinates it must
raise ``ConsistencyError`` exactly when the reference raises, and
otherwise give the reference's rows, ``inn`` and ``facts``, compared as
dicts, on atom structures with a fact removed and on hand-built carriers
run through ``build_universe``; on an unkeyed hand-built carrier it must
raise.  ``ref_steps_agree``, the per-step table the stage never runs,
checks its step lemma on every raw keyed carrier of one to three atoms
and on drawn ones.
The checks under test compute each end element's label entries once,
decide the partition lines by the pair-kind lemma, counting each kind of
pair off the universe's lists with no pass over the triples, decide the
key property on the network's ``facts``, walking the triples only on a
failure, and decide replacement closure by the replacement lemma, from
one count of the triples per shortest witness length; they must agree
with these on every result, witness and message.  The pair-kind lemma's
premise, that the reference types every triple and every line of its
partition holds, is checked on every raw WA structure of one to three
atoms at depths 1 to 4 and on drawn ones; the reference must fail each
partition line on some universe whose lists were corrupted, and both
must fail the partition line on a network with a pair added or dropped.

``ref_chain_agreement`` is the chain-agreement check as a walk over
per-atom chain sets and over every labelled pair.
``check_chain_agreement`` fills one chain set, counts the exclusions by
its chain-count lemma and decides the cover half by its chain-reach
lemma.  The images the replacement lemma demands, and the chain pairs
the chain-reach lemma demands, are looked up on every raw WA structure
of one to three atoms at depths 1 to 4, and on drawn ones of four and
five atoms.  On networks with one pair relabelled, dropped or added, off
the chain-reach lemma's premise, a mislabelled pair must be named as the
reference names one, and a pair the reference finds unreachable must
fail the check or the pair-partition line.  On universes with a triple
deleted, the reference must name the deleted triple as a missing image.

``ref_check_reduct_closure`` and ``ref_check_reduct_isomorphism`` walk
every element of the reduct's carrier (``ref_carrier``: every join of
2-blocks) and every pair of source-algebra elements through the element
tables.  The checks under test decide ``carrier-two-dimensional`` and
``operations-closed`` by their lemma and the isomorphism lines on the
atoms, and must give the same lines and name the same first witness.
"""

import random
from ast import literal_eval
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warel import reduct
from warel.core import AtomStructure, CheckResult, ConsistencyError, classify, iter_bits
from warel.enumerate import enumerate_structures
from warel.reduct import REPLACEMENT_STEPS
from warel.suitable import COORDS, SuitableStructure, build_suitable
from warel.trails import build_universe

from test_composition_reference import labels, network, ref_final_upper
from test_cylindric_reference import raw_wa_universes
from test_enumerate_reference import sample_structure
from test_trails_reference import list_base_pairs, list_partners


def _assign(label, u, v, a):
    old = label.get((u, v))
    if old is None:
        label[(u, v)] = a
    elif old != a:
        raise ConsistencyError(f"pair ({u},{v}) labelled {old} and {a}")


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


def ref_chain_sets(uni, n):
    """Per atom a, the pairs (t0, t1) of the reachable triples whose end's
    last coordinate is a."""
    chain = {a: set() for a in range(n)}
    for trip, info in uni.triples.items():
        chain[uni.S.elements[info.end][2]].add((trip[0], trip[1]))
    return chain


def ref_chain_agreement(uni, net):
    """``check_chain_agreement`` as a walk over per-atom sets: first every
    chain pair against its atom, then every labelled pair outside its own
    label's chain."""
    lengths, bound = uni.lengths, uni.bound
    label = labels(net)
    chain = ref_chain_sets(uni, net.algebra.atom_count)
    for a in chain:
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


def ref_chain_rejects(uni, net):
    """Every pair that :func:`ref_chain_agreement` can name, by kind."""
    lengths, bound = uni.lengths, uni.bound
    label = labels(net)
    chain = ref_chain_sets(uni, net.algebra.atom_count)
    return {
        "mislabelled": {pr for a in chain for pr in chain[a] if label.get(pr) != a},
        "unreachable": {
            (u, v)
            for (u, v), a in label.items()
            if (u, v) not in chain[a] and lengths[u] + 3 <= bound and lengths[v] + 3 <= bound
        },
    }


def ref_build_pair_structure(A, uni):
    label = {}
    conv = A.converse
    # a loop's label is its domain or range atom; a mask of no atom or of
    # two (an AtomStructure built directly allows both) labels nothing
    bit = lambda m: m.bit_length() - 1 if m and not m & (m - 1) else None

    for trip, info in sorted(uni.triples.items()):
        t0, t1, t2 = uni.S.elements[info.end]
        u, v, w = trip
        _assign(label, u, v, t2)
        _assign(label, v, u, conv[t2])
        _assign(label, v, w, t0)
        _assign(label, w, v, conv[t0])
        _assign(label, u, w, t1)
        _assign(label, w, u, conv[t1])
        du = A.atom_domains[t1]
        if du != A.atom_domains[t2] or bit(du) is None:
            raise ConsistencyError(f"diagonal label mismatch at {trip}")
        _assign(label, u, u, bit(du))
        dv = A.atom_ranges[t2]
        if dv != A.atom_domains[t0] or bit(dv) is None:
            raise ConsistencyError(f"diagonal label mismatch at {trip}")
        _assign(label, v, v, bit(dv))
        dw = A.atom_ranges[t0]
        if dw != A.atom_ranges[t1] or bit(dw) is None:
            raise ConsistencyError(f"diagonal label mismatch at {trip}")
        _assign(label, w, w, bit(dw))
    return network(A, label)


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
        for q in list_partners(uni, pid)
        for pr in ((pid, q), (q, pid))
    }


def assert_pair_kind_premise(A, uni, net):
    """The premise of the pair-kind lemma of ``check_pair_partition``:
    the reference types every triple and every partition line holds,
    and the check under test gives the reference's lines."""
    ref = ref_pair_split(A, uni, net.label)
    assert "unclassified" not in ref.lem9_kind.values()
    want = ref_check_pair_partition(ref)
    assert all(c.holds for c in want), want
    assert reduct.check_pair_partition(uni, net) == want


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
    is_two_dim = lambda x: S.t_star(2, x) == x
    carrier = ref_carrier(S)
    out = []
    ok = all(is_two_dim(x) for x in carrier)
    out.append(CheckResult("carrier-two-dimensional", ok))
    ok = is_two_dim(S.e_masks[0][1])
    out.append(CheckResult("identity-two-dimensional", ok))
    bad = None
    for x in carrier:
        if not is_two_dim(reduct._converse(S, x)):
            bad = ("converse", x)
            break
        for y in carrier:
            if not is_two_dim(reduct._compose(S, x, y)):
                bad = ("compose", x, y)
                break
        if bad:
            break
    out.append(CheckResult("operations-closed", bad is None, str(bad or "")))
    return tuple(out)


def ref_check_reduct_isomorphism(A, S):
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
    out.append(CheckResult("identity-preserved", images[A.identity] == S.e_masks[0][1]))
    bad = None
    for x in els:
        if images[A.conv_el(x)] != reduct._converse(S, images[x]):
            bad = ("converse", x)
            break
        for y in els:
            if images[A.compose(x, y)] != reduct._compose(S, images[x], images[y]):
                bad = ("compose", x, y)
                break
        if bad:
            break
    out.append(CheckResult("operations-preserved", bad is None, str(bad or "")))
    return tuple(out)


def _outcome(build, A, uni):
    """The builder's rows ``(out, inn)``, compared as dicts, or the type
    and message of what it raised."""
    try:
        net = build(A, uni)
    except Exception as exc:  # compared, never swallowed: both sides must match
        return type(exc).__name__, str(exc)
    return net.rows


def assert_stage_matches_reference(A, uni):
    """Asserts that, on a keyed carrier, the stage raises the reference's
    exception exactly when the reference raises, and otherwise gives its
    rows; returns the reference's outcome.  The stage decides its premise
    from its writes, so its message names no walk's first witness."""
    got, want = _outcome(reduct.build_pair_structure, A, uni), _outcome(ref_build_pair_structure, A, uni)
    if isinstance(want[0], str):
        assert got[0] == want[0], (got, want)
    else:
        assert got == want
    return want


@pytest.fixture(scope="module")
def inputs(a2, pentagon, census):
    out = []
    for A in (a2, pentagon, *census):
        uni = build_universe(build_suitable(A), 3)
        out.append((A, uni, reduct.build_pair_structure(A, uni)))
    return out


def test_pair_structure_matches_reference(inputs):
    # the rows come in pid order, the reference's in sorted-triple order,
    # so rows, columns and facts are compared as dicts and sets
    for A, uni, net in inputs:
        want = ref_build_pair_structure(A, uni)
        assert net.rows == want.rows and net.facts == want.facts
        ref = ref_pair_split(A, uni, net.label)
        assert _descent(uni) == ref.xi_pairs
        assert list_base_pairs(A, uni) == ref.base_pairs
        assert_pair_kind_premise(A, uni, net)


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
    # lists that no walk makes lie off the pair-kind lemma's premise, so
    # only the reference decides them: each of its three partition lines
    # fails on some corrupted copy, so it can tell such lists apart
    rng = random.Random(21)
    failed = set()
    for A, uni, net in inputs:
        for _ in range(12):
            bad = _corrupt_lists(uni, rng)
            got = ref_check_pair_partition(ref_pair_split(A, bad, net.label))
            failed |= {c.name for c in got if not c.holds}
    assert failed == {"pair-partition-exact", "triple-types-total", "descent-pairs-shorten"}


def test_triple_types_detail_names_the_three_smallest_unclassified(inputs):
    # on corrupted copies with more than three unclassified triples, the
    # reference's failing line names the three smallest, in increasing
    # order; the check under test decides the line by its lemma
    rng = random.Random(22)
    seen = 0
    for A, uni, net in inputs:
        for _ in range(6):
            bad = _corrupt_lists(uni, rng)
            ref = ref_pair_split(A, bad, net.label)
            unclassified = {t for t, k in ref.lem9_kind.items() if k == "unclassified"}
            if len(unclassified) <= 3:
                continue
            line = ref_check_pair_partition(ref)[1]
            assert line.name == "triple-types-total" and not line.holds
            assert literal_eval(line.detail.removeprefix("unclassified ")) == sorted(unclassified)[:3]
            seen += 1
    assert seen >= 3


def test_replacement_closure_matches_reference(inputs):
    for _, uni, _ in inputs:
        got = reduct.check_replacement_closure(uni)
        assert got == ref_replacement_closure(uni)
        assert got[0].holds


def _replacement_counts(uni):
    """The ``checked=... excluded=...`` detail of a walk over every
    demanded image, reached or not."""
    checked = sum(info.min_length + s <= uni.bound for info in uni.triples.values() for s in REPLACEMENT_STEPS.values())
    return f"checked={checked} excluded={len(REPLACEMENT_STEPS) * len(uni.triples) - checked}"


def test_replacement_closure_names_the_reference_witness(inputs):
    # deleting a reachable triple takes the universe off the replacement
    # lemma's premise, so only the reference decides it: it fails where a
    # triple demands the deleted one as an image, and names that image,
    # while the check reports the corrupted universe's counts
    rng = random.Random(5)
    failing = 0
    for A, uni, _ in inputs:
        for _ in range(8):
            gone = rng.choice(sorted(uni.triples))
            triples = {t: info for t, info in uni.triples.items() if t != gone}
            bad = replace(uni, triples=triples)
            (want,) = ref_replacement_closure(bad)
            if not want.holds:
                trip, f, image = literal_eval(want.detail)
                assert trip in triples and image == tuple(trip[i] for i in f) == gone
                failing += 1
            got = reduct.check_replacement_closure(bad)
            assert got == (CheckResult("replacement-closure", True, _replacement_counts(bad)),)
    assert failing > 20


def _corrupt_label(net, uni, rng):
    """A copy of net's labels with one pair relabelled, dropped or added.
    Half the added pairs join two points with three steps of headroom,
    the only pairs whose absence from the chains can fail the line."""
    label = labels(net)
    kind = rng.choice(["relabel", "drop", "add"])
    if kind == "add":
        short = [p for p, n in enumerate(uni.lengths) if n + 3 <= uni.bound]
        pool = short if short and rng.random() < 0.5 else range(len(uni.lengths))
        u, v = rng.choice(pool), rng.choice(pool)
        if (u, v) not in label:
            label[u, v] = rng.randrange(net.algebra.atom_count)
        return label
    pr = rng.choice(list(label))
    if kind == "drop":
        del label[pr]
    else:
        label[pr] = (label[pr] + rng.randrange(1, net.algebra.atom_count)) % net.algebra.atom_count
    return label


def test_chain_agreement_matches_reference_on_corrupted_networks(a2, pentagon, census):
    # depths 2 to 5, each only while the network one depth shallower has
    # at most 3,000 pairs, which keeps the test to seconds (the largest
    # census network has 109k pairs at depth 4 and 1.4 million at depth
    # 5): 684 corrupted networks, 84 of them at depth 5.  A corrupted
    # network lies off the chain-reach lemma's premise.  Where the
    # reference passes, the check gives its line; where it finds a
    # mislabelled pair, the check names one it rejects so; and every pair
    # it rejects as unreachable is caught, by the check's mislabelled
    # line or by the pair-partition line.
    rng = random.Random(31)
    kinds = Counter()
    for A in (a2, pentagon, *census):
        pairs = 0
        for depth in (2, 3, 4, 5):
            if pairs > 3_000:
                break
            uni = build_universe(build_suitable(A), depth)
            net = reduct.build_pair_structure(A, uni)
            pairs = len(net.label)
            assert reduct.check_chain_agreement(uni, net) == ref_chain_agreement(uni, net)
            for _ in range(12):
                bad = network(A, _corrupt_label(net, uni, rng))
                got, want = reduct.check_chain_agreement(uni, bad), ref_chain_agreement(uni, bad)
                if want.holds:
                    assert got == want
                    continue
                kind = want.detail.rsplit(" ", 1)[1]
                kinds[kind] += 1
                if kind == "mislabelled":
                    pair, named = got.detail.rsplit(" ", 1)
                    assert not got.holds and named == kind
                    assert literal_eval(pair) in ref_chain_rejects(uni, bad)[kind]
                else:
                    assert not got.holds or not reduct.check_pair_partition(uni, bad)[0].holds
    assert kinds["mislabelled"] > 0 and kinds["unreachable"] > 0, kinds


def assert_replacement_and_chain_reach(A, uni):
    """Every image the replacement lemma demands is reached, within its
    length bound, and every labelled pair with three steps of headroom is
    a chain pair: the references, which look each one up, pass, and the
    checks give their lines."""
    for trip, info in uni.triples.items():
        for f, s in REPLACEMENT_STEPS.items():
            if info.min_length + s <= uni.bound:
                assert uni.triples[tuple(trip[i] for i in f)].min_length <= info.min_length + s
    want = ref_replacement_closure(uni)
    assert want[0].holds and reduct.check_replacement_closure(uni) == want
    net = reduct.build_pair_structure(A, uni)
    assert not ref_chain_rejects(uni, net)["unreachable"]
    want = ref_chain_agreement(uni, net)
    assert want.holds and reduct.check_chain_agreement(uni, net) == want


def test_replacement_and_chain_reach_on_every_raw_wa_structure():
    for S, uni in raw_wa_universes():
        assert_replacement_and_chain_reach(S.algebra, uni)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_replacement_and_chain_reach_on_drawn_structures(past_raw, data):
    A = data.draw(st.sampled_from(past_raw))
    assert classify(A).is_wa
    assert_replacement_and_chain_reach(A, build_universe(build_suitable(A), data.draw(st.integers(1, 4))))


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
    assert_pair_kind_premise(A, uni, ref_build_pair_structure(A, uni))
    assert reduct.check_replacement_closure(uni) == ref_replacement_closure(uni)


def test_pair_kind_premise_on_every_raw_wa_structure():
    # every raw WA structure of one to three atoms, relabellings
    # included, at depths 1 to 4: 116 universes
    raw = [A for n in (1, 2, 3) for A in enumerate_structures(n) if classify(A).is_wa]
    assert len(raw) == 29
    for A in raw:
        S = build_suitable(A)
        for depth in (1, 2, 3, 4):
            uni = build_universe(S, depth)
            assert_pair_kind_premise(A, uni, reduct.build_pair_structure(A, uni))


def test_a_pair_added_or_dropped_fails_the_partition_in_both(inputs):
    # the partition line is the cross-check of the network against the
    # universe: a pair of two distinct points added to or dropped from
    # the labels fails it in the check and in the reference alike, with
    # the same counts
    rng = random.Random(44)
    dropped = 0
    for A, uni, net in inputs:
        label = labels(net)
        points = range(len(uni.lengths))
        added = next((u, v) for u in points for v in points if u != v and (u, v) not in label)
        changes = [{**label, added: 0}]
        distinct = [pr for pr in label if pr[0] != pr[1]]
        if distinct:
            gone = rng.choice(distinct)
            changes.append({pr: a for pr, a in label.items() if pr != gone})
            dropped += 1
        for change in changes:
            bad = network(A, change)
            got = reduct.check_pair_partition(uni, bad)
            assert got == ref_check_pair_partition(ref_pair_split(A, uni, bad.label))
            assert not got[0].holds, got
    assert dropped > 10


def _removed_fact_cases(structures, depths):
    """(B, uni): each structure's universe at each depth, read through the
    structure with one composition fact removed, in sorted order.  A
    removed fact can change a domain or range atom, so the loops'
    labels; the universe is still one that ``build_universe`` made."""
    for A in structures:
        for depth in depths:
            uni = build_universe(build_suitable(A), depth)
            for fact in sorted(A.cycles):
                yield AtomStructure(A.atom_count, A.identity, A.converse, A.cycles - {fact}), uni


def _message_kind(outcome):
    return outcome[1].split(" at ")[0] if "diagonal" in outcome[1] else "pair"


def test_pair_disagreement_matches_reference(pentagon, census):
    # a removed fact empties a domain or range, here always of one
    # identity atom, so a loop's two masks disagree or hold no atom: both
    # raise, the reference a diagonal mismatch, and no pair clashes on a
    # loop
    raised, kinds = 0, set()
    for B, uni in _removed_fact_cases((pentagon, *census), (2, 3)):
        want = assert_stage_matches_reference(B, uni)
        if want[0] == "ConsistencyError":
            raised += 1
            kinds.add(_message_kind(want))
    assert raised > 50
    assert kinds == {"diagonal label mismatch"}


def hand_carrier(A, elements, masks=None, tkey=None):
    """A suitable structure on any atom triples: unless ``masks`` and
    ``tkey`` are given, masked by the identity atoms of their third
    coordinates and keyed by their coordinates, as ``build_suitable``
    masks and keys the cycles."""
    n = len(elements)
    if masks is None:
        masks = [
            [(1 << n) - 1 if k == l else sum(1 << i for i, t in enumerate(elements) if (1 << t[3 - k - l]) & A.identity)
             for l in COORDS]
            for k in COORDS
        ]
    if tkey is None:
        tkey = [[t[k] for t in elements] for k in COORDS]
    return SuitableStructure(tuple(elements), tuple(map(tuple, tkey)), tuple(map(tuple, masks)), algebra=A)


def _carrier_cases(A, bound=2):
    """(uni, elements): the universe of every one- and two-element
    carrier over the atom triples of A, skipping those whose walk reaches
    one triple from two carrier elements."""
    n = A.atom_count
    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    for elements in [[t] for t in triples] + [[t, s] for i, t in enumerate(triples) for s in triples[i + 1:]]:
        try:
            yield build_universe(hand_carrier(A, elements), bound), elements
        except ConsistencyError:
            continue


def test_diagonal_mismatch_matches_reference(two_identities):
    # every atom triple, and every pair of them, as a hand-built carrier:
    # with two identity atoms the loops of many disagree inside a triple,
    # and a loop can clash with one given to the same point at another
    # step of the walk
    A = two_identities
    kinds = set()
    for uni, elements in _carrier_cases(A):
        want = assert_stage_matches_reference(A, uni)
        if want[0] == "ConsistencyError":
            kinds.add(_message_kind(want))
    assert kinds == {"diagonal label mismatch", "pair"}


def ref_steps_agree(S, matrices):
    """Every walk step (before, k, last), ``last`` in
    ``S.neighbors[k][before]``, agrees: the matrix of last equals the
    matrix of before at each entry that the step's triple shares with its
    parent's.  Coordinate k holds the parent's point at
    l = ``S.least_repoint[last][k]``, or, at l = -1, a fresh point, whose
    pairs are not shared."""
    repoint = S.least_repoint
    for before, m in enumerate(matrices):
        for k, near in enumerate(S.neighbors):
            for last in near[before]:
                # where each coordinate's point sits in the parent's triple
                at = [repoint[last][k] if i == k else i for i in COORDS]
                shared = [(i, j) for i in COORDS for j in COORDS if -1 not in (at[i], at[j])]
                if any(matrices[last][3 * i + j] != m[3 * at[i] + at[j]] for i, j in shared):
                    return False
    return True


def _keyed(S):
    return S.tkey == tuple(zip(*S.elements))


def _clash_site(A, uni):
    """Where the pair stage's premise fails: an unkeyed carrier, or on a
    keyed one a None loop, a base triple's write or a fresh point's
    write; None when a keyed carrier has none."""
    if not _keyed(uni.S):
        return "unkeyed"
    matrices = [reduct._end_matrix(A, t) for t in uni.S.elements]
    if any(None in m for m in matrices):
        return "loop"
    bases_only = replace(uni, lengths=[], pointers=[], own_triples=[])
    if reduct._point_rows(bases_only, matrices) is None:
        return "base write"
    return "point write" if reduct._point_rows(uni, matrices) is None else None


def test_each_clash_site_is_reached_and_exact(pentagon, two_identities, census):
    # the pair stage raises exactly when one of its sites finds its
    # premise failing: on an unkeyed carrier always, on a keyed one
    # exactly when the reference raises.  Hand-built carriers, none in a
    # mask off the diagonal unless said: in ``loop``, the element
    # (e1, e1, e2) has loops that disagree.  In ``step``, (e, e, e) and
    # (r, r, r) share a 0-block though their atoms at 0 differ, so the
    # carrier is unkeyed; a step at coordinate 0 makes a fresh point and
    # keeps the pair at coordinates 1 and 2, labelled e and then r, and
    # the reference's walk over the triples finds it; at bound 1 no step
    # is walked and the reference returns the rows.  In
    # ``fresh``, (e, r, r), in the masks E(1, 2) and E(2, 1), settles
    # coordinates 1 and 2 to one base point, and a step at coordinate 0 to
    # (e, r, s) makes a fresh point paired with that one point as r and
    # as s.
    e, r, s = range(3)
    diagonal = lambda n: [[(1 << n) - 1 if k == l else 0 for l in COORDS] for k in COORDS]
    loop = build_universe(hand_carrier(two_identities, [(0, 0, 1)], diagonal(1)), 2)
    shared = hand_carrier(pentagon, [(e, e, e), (r, r, r)], diagonal(2), [[0, 0], [0, 1], [0, 1]])
    step = build_universe(shared, 2)
    one = [[3, 0, 0], [0, 3, 1], [0, 1, 3]]
    fresh = build_universe(hand_carrier(pentagon, [(e, r, r), (e, r, s)], one), 2)
    cases = [(two_identities, loop), (pentagon, step), (pentagon, build_universe(shared, 1)), (pentagon, fresh)]
    cases += [(two_identities, uni) for uni, _ in _carrier_cases(two_identities)]
    cases += [(pentagon, uni) for uni, _ in _carrier_cases(pentagon)]
    cases += list(_removed_fact_cases((pentagon, *census[:6]), (1, 2)))
    sites, raised = Counter(), []
    for A, uni in cases:
        site = _clash_site(A, uni)
        if site == "unkeyed":
            with pytest.raises(ConsistencyError):
                reduct.build_pair_structure(A, uni)
            want = _outcome(ref_build_pair_structure, A, uni)
        else:
            want = assert_stage_matches_reference(A, uni)
            assert (want[0] == "ConsistencyError") == (site is not None), (site, want)
        raised.append(want[0] == "ConsistencyError")
        sites[site] += 1
    assert [_clash_site(A, uni) for A, uni in cases[:4]] == ["loop", "unkeyed", "unkeyed", "point write"]
    assert raised[:4] == [True, True, False, True]
    # the step table is exact on its own: (e, r, e), in the mask E(1, 0),
    # repoints a step at coordinate 0 from (e, e, e) to the point at 1,
    # and only the entries through the repointed coordinate disagree; the
    # base write of (e, r, e) clashes too, as the step lemma says
    repointed = hand_carrier(pentagon, [(e, e, e), (e, r, e)], [[3, 0, 0], [2, 3, 0], [0, 0, 3]])
    assert repointed.least_repoint[1][0] == 1
    assert not ref_steps_agree(repointed, [reduct._end_matrix(pentagon, t) for t in repointed.elements])
    assert _clash_site(pentagon, build_universe(repointed, 1)) == "base write"
    assert set(sites) == {"unkeyed", "loop", "base write", "point write", None}, sites


def _step_clash(A, S):
    """Whether a walk step of the keyed carrier S disagrees; asserts the
    step lemma of ``build_pair_structure``: then some element matrix has
    a None loop or some base write clashes."""
    matrices = [reduct._end_matrix(A, t) for t in S.elements]
    if ref_steps_agree(S, matrices):
        return False
    bases = build_universe(S, 1)
    assert any(None in m for m in matrices) or reduct._point_rows(bases, matrices) is None, S
    return True


@pytest.fixture(scope="module")
def raw_keyed_carriers():
    """(A, S) for every raw structure of 1 to 3 atoms with a fact: S is
    the carrier ``build_suitable`` would make, keyed and masked by the
    coordinates of the cycles, built with no WA check."""
    return [
        (A, hand_carrier(A, sorted((y, z, x) for x, y, z in A.cycles)))
        for n in (1, 2, 3)
        for A in enumerate_structures(n)
        if A.cycles
    ]


def test_pair_stage_premise_on_every_raw_wa_structure():
    # the three parts of the premise that ``build_pair_structure`` proves
    # for a WA structure, on its 116 universes of depths 1 to 4: the
    # carrier is keyed; every domain and range is one atom, so no loop is
    # None; and, the induction of the no-clash part, two coordinates of a
    # reached triple hold one point only when its end has an identity
    # atom at the third
    for S, uni in raw_wa_universes():
        A = S.algebra
        assert all(m and not m & (m - 1) for m in (*A.atom_domains, *A.atom_ranges)), A
        assert _keyed(S) and not any(None in reduct._end_matrix(A, t) for t in S.elements)
        for trip, info in uni.triples.items():
            t = S.elements[info.end]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                assert trip[i] != trip[j] or (1 << t[3 - i - j]) & A.identity, (A, trip, t)


def test_step_lemma_on_every_raw_keyed_carrier(raw_keyed_carriers):
    # the lemma is what lets the stage skip the step table: on all 4,650
    # carriers, 3,128 of them with a step that disagrees
    carriers = raw_keyed_carriers
    assert all(_keyed(S) for _, S in carriers)
    assert (len(carriers), sum(_step_clash(A, S) for A, S in carriers)) == (4650, 3128)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_lemma_on_drawn_keyed_carriers(data):
    # any atom triples, keyed by their coordinates, under random masks;
    # where the walk to bound 2 is well defined the stage raises exactly
    # when the reference does, and otherwise gives its rows
    A = sample_structure(data.draw(st.integers(1, 3)), random.Random(data.draw(st.integers(0, 2**32 - 1))))
    n = A.atom_count
    atoms = st.tuples(*[st.integers(0, n - 1)] * 3)
    elements = data.draw(st.lists(atoms, min_size=1, max_size=5, unique=True))
    full = (1 << len(elements)) - 1
    masks = [[data.draw(st.integers(0, full)) for _ in COORDS] for _ in COORDS]
    S = hand_carrier(A, elements, masks)
    _step_clash(A, S)
    try:
        uni = build_universe(S, 2)
    except ConsistencyError:
        return  # one triple reached from two carrier elements
    assert_stage_matches_reference(A, uni)


def test_no_network_carries_a_label_outside_the_atoms(raw_keyed_carriers):
    # an atom whose domain or range holds no atom, or two, would label a
    # loop -1 or an arbitrary atom; the stage raises a diagonal mismatch
    # instead, as the reference does
    returned = raised = 0
    for A, S in raw_keyed_carriers:
        for depth in (1, 2):
            try:
                net = reduct.build_pair_structure(A, build_universe(S, depth))
            except ConsistencyError:
                raised += 1
                continue
            assert all(a in range(A.atom_count) for row in net.rows[0].values() for a in row.values()), A
            returned += 1
    assert returned > 100 and raised > 9000, (returned, raised)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pair_rows_match_reference_on_drawn_census_classes(census, data):
    A = data.draw(st.sampled_from(census))
    uni = build_universe(build_suitable(A), data.draw(st.integers(1, 4)))
    net, want = reduct.build_pair_structure(A, uni), ref_build_pair_structure(A, uni)
    assert net.rows == want.rows and net.facts == want.facts


def test_a_universe_off_the_lemma_premise_still_raises(pentagon):
    # lists that no walk makes: a base triple of a diversity element
    # whose three points are one clashes in the write, though no triple
    # holds it; the walk over the triples then names no pair, and the
    # stage raises all the same
    uni = build_universe(build_suitable(pentagon), 2)
    t = next(i for i, el in enumerate(uni.S.elements) if el[2] not in iter_bits(pentagon.identity))
    x = uni.base_triples[t][0]
    bad = replace(uni, base_triples=[*uni.base_triples[:t], (x, x, x), *uni.base_triples[t + 1:]])
    with pytest.raises(ConsistencyError, match="clash off the reachable triples"):
        reduct.build_pair_structure(pentagon, bad)


def test_key_property_matches_reference(inputs):
    # each mutation gets a network of its own: the line is decided on
    # ``net.facts``, which a network computes once and caches
    rng = random.Random(11)
    failing = 0
    for A, uni, net in inputs:
        assert reduct.check_key_property(uni, net) == ref_key_property(A, uni, net.label)
        unchanged = labels(net)
        pairs = list(unchanged)
        for _ in range(40):
            label = dict(unchanged)
            pr = rng.choice(pairs)
            label[pr] = rng.randrange(A.atom_count)
            got = reduct.check_key_property(uni, network(A, label))
            assert got == ref_key_property(A, uni, label), pr
            failing += not got.holds
    assert failing > 100


# ---------------------------------------------------------------------------
# The triangle lemma of ``build_universe``: the pair stage seeds its
# network's ``facts`` from the carrier's label matrices, and the walk over
# every triangle of a network built afresh from the same labels is the
# reference.


def assert_triangles_are_local(A, uni):
    """The seeded facts are the walked ones, and every triangle on three
    distinct points is a permutation of its longest point's own triple
    (a base triple when all three have length one)."""
    net = reduct.build_pair_structure(A, uni)
    assert "facts" in vars(net)
    walked = network(A, labels(net))
    seen = set()
    for u, v, w, a, b, c in walked.triangles():
        seen.add((a, b, c))
        if u < v < w:  # the unit is symmetric: each point set comes in six orders
            home = uni.own_triples[max((u, v, w), key=uni.lengths.__getitem__)]
            assert home in uni.triples and sorted(home) == sorted((u, v, w)), (u, v, w)
    assert net.facts == walked.facts == seen


def test_seeded_facts_are_the_walked_facts(a2, pentagon, census):
    for A in (a2, pentagon, *census):
        for depth in (1, 2, 3, 4):
            assert_triangles_are_local(A, build_universe(build_suitable(A), depth))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_seeded_facts_on_drawn_census_classes(census, data):
    A = data.draw(st.sampled_from(census))
    depth = data.draw(st.integers(1, 3))
    assert_triangles_are_local(A, build_universe(build_suitable(A), depth))


def test_hand_built_networks_walk_their_triangles(pentagon):
    # base points of three carrier elements share no triple; labelling
    # their pairs r, r and s makes a triangle outside every triple, with
    # a fact (r, r, s) that r ; r = r forbids
    uni = build_universe(build_suitable(pentagon), 2)
    net = reduct.build_pair_structure(pentagon, uni)
    u, v, w = (base[0] for base in uni.base_triples[:3])
    label = dict(net.label)
    for x, y, a in ((u, v, 1), (v, w, 1), (u, w, 2)):
        assert (x, y) not in label
        label[(x, y)] = a
        label[(y, x)] = pentagon.converse[a]
    hand = network(pentagon, label)
    assert "facts" not in vars(hand)
    assert hand.facts == {(a, b, c) for *_, a, b, c in hand.triangles()}
    assert hand.facts - net.facts == {(1, 1, 2), (2, 2, 1)}
    assert set(hand.upper_violation()) == {u, v, w}
    # no triple holds the triangle, so the walk over the triples finds none
    assert reduct.check_key_property(uni, hand).holds


def test_a_removed_fact_fails_both_lines_with_the_walked_witnesses(pentagon, census):
    # every fact is some carrier element's cycle, so removing it from the
    # algebra the pair stage reads fails both lines; the witnesses are
    # those of the per-pair and the per-triple references
    failed = 0
    for A in (pentagon, *census):
        uni = build_universe(build_suitable(A), 2)
        for fact in sorted(A.cycles):
            B = AtomStructure(A.atom_count, A.identity, A.converse, A.cycles - {fact})
            try:
                net = reduct.build_pair_structure(B, uni)
            except ConsistencyError:
                continue  # the fact fixed a domain or range atom
            upper = reduct.final_representation(uni, net)[1][4]
            assert (upper.name, upper.holds, upper.detail) == ref_final_upper(B, net.label)
            assert not upper.holds
            key = reduct.check_key_property(uni, net)
            assert not key.holds and key == ref_key_property(B, uni, net.label)
            failed += 1
    assert failed > 100


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
