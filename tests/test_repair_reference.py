"""Signature-decided repairs and seeded facts against the full repair.

``ref_repair`` is the repair that runs every check on every repair: five
``_add_label`` calls, ``_check_triangles_through`` on (u, v, w) and a
whole ``is_flaw`` search afterwards.  ``ref_saturate`` runs the passes of
``saturate`` with it on a system built directly (``ref_initial``), which
has no ``signatures``.  ``saturate`` decides each repair signature once
(the signature lemma of ``warel.labelling``) and must leave the same
labels, rows (key order included), stages and repair count.  Its network's ``facts``, seeded from the signatures' matrices
(the repair-locality lemma of ``LabellingSystem.network``), must be the
facts a walk over every triangle finds.  A repair that breaks a
structural property must raise the reference's ``ConsistencyError``.

``saturate`` lists a pass's flaws from the previous pass's repairs only
when both ran in one call (the flaw-locality lemma), so each input is
also saturated in one call for each pass count and compared with the
reference, and every listing made from templates must equal
``find_flaws`` taken at the start of its pass, each flaw carrying its
own signature (the child-signature lemma of ``_flaw_template``).  A
template that leaves a flaw unrepaired must fail
``composition-lower-staged``.

``saturate`` writes a repair whose signature is known straight from its
matrix, with no flaw test (the listing lemma of ``saturate``): its
signatures must be first met in the order of the reference's repairs,
and the flaw test must run once per new signature.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from test_composition_reference import _by_name, _system, network, ref_labelling_upper
from warel import labelling as lb
from warel.core import iter_bits, validate_atom_structure
from warel.enumerate import summarize


def ref_initial(A):
    """``initial_system`` without its WA check and its signatures."""
    ls = lb.LabellingSystem(A)
    for e in iter_bits(A.identity):
        p = ls._add_point(0)
        ls._add_label(p, e, p)
    return ls


def ref_repair(ls, f):
    if not ls.is_flaw(f):
        raise ValueError(f"not a flaw (already witnessed or unlabelled): {f}")
    u, a, v, b, c = f
    A = ls.algebra
    rng_b = A.atom_ranges[b]
    if bin(rng_b).count("1") != 1:
        raise lb.ConsistencyError(f"range of atom {b} is not an atom")
    w = ls._add_point(ls.passes_done + 1)
    ls._add_label(u, b, w)
    ls._add_label(w, c, v)
    ls._add_label(w, A.converse[b], u)
    ls._add_label(v, A.converse[c], w)
    ls._add_label(w, rng_b.bit_length() - 1, w)
    lb._check_triangles_through(ls, (u, v, w))
    if ls.is_flaw(f):
        raise lb.ConsistencyError(f"repair did not remove the flaw {f}")
    ls.repairs_done += 1
    return ls


def ref_saturate(ls, passes, signatures=None):
    """Every pass tests every listed flaw again before repairing it.
    ``signatures``, when given, collects each repaired flaw's signature,
    read off the rows just before its repair."""
    for k in range(ls.passes_done + 1, ls.passes_done + passes + 1):
        for f in lb.find_flaws(ls, scope=k):
            if ls.is_flaw(f):
                if signatures is not None:
                    signatures.append(lb._signature(ls, f))
                ref_repair(ls, f)
        ls.passes_done = k
    return ls


def saturate_checking_listings(A, passes):
    """``saturate(initial_system(A), passes)`` in one call, requiring each
    pass listed from templates to list ``find_flaws(ls, scope=k)`` taken
    at the start of pass k; returns the system and those passes."""
    listed, real = [], lb._fresh_flaws

    def checked(ls, fresh, templates):
        flaws = real(ls, fresh, templates)
        k = ls.passes_done + 1
        assert [f[:5] for f in flaws] == lb.find_flaws(ls, scope=k), k
        assert [f[5] for f in flaws] == [lb._signature(ls, f[:5]) for f in flaws], k
        listed.append(k)
        return flaws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lb, "_fresh_flaws", checked)
        ls = lb.saturate(lb.initial_system(A), passes)
    return ls, listed


def _state(ls):
    rows = lambda index: [(p, list(row.items())) for p, row in index.items()]
    return (
        list(ls.label.items()), rows(ls.out), rows(ls.inn), list(ls.stage),
        ls.repairs_done, ls.passes_done,
    )


def assert_saturation_matches_reference(A, passes):
    """Pass by pass up to ``passes``: the same state as the reference,
    signatures first met in the order of the reference's repairs, and
    seeded facts equal to the walked ones; and the same state and
    signatures from one call of ``saturate`` for each pass count, every
    pass after the first listed from templates."""
    ls, ref, sigs = lb.initial_system(A), ref_initial(A), []
    for k in range(passes + 1):
        if k:
            lb.saturate(ls, 1)
            ref_saturate(ref, 1, sigs)
        assert _state(ls) == _state(ref), k
        assert list(ls.signatures) == list(dict.fromkeys(sigs)), k
        whole, listed = saturate_checking_listings(A, k)
        assert listed == list(range(2, k + 1))
        assert _state(whole) == _state(ref), k
        assert list(whole.signatures) == list(ls.signatures), k
        net = ls.network()
        assert "facts" in vars(net)
        assert net.facts == network(A, dict(ls.label)).facts == ref.network().facts, k
    return ls


def test_saturate_matches_reference_on_pentagon(pentagon):
    ls = assert_saturation_matches_reference(pentagon, 6)
    assert ls.repairs_done == 2048 and len(ls.signatures) == 8


def test_saturate_matches_reference_on_small_structures(a1, a2, two_identities, past_raw):
    for A in (a1, a2, two_identities, *past_raw):
        assert_saturation_matches_reference(A, 4)


def test_saturate_matches_reference_on_the_census(census):
    assert len(census) == 17
    for A in census:
        assert_saturation_matches_reference(A, 3)


def test_saturate_matches_reference_on_sampled_four_atom_classes():
    wa = summarize(4, mod_iso=True)[1]
    assert len(wa) == 325
    for A in wa[::25]:  # 13 classes, fixed
        assert_saturation_matches_reference(A, 3)


def test_carried_signatures_are_read_off_the_rows_at_their_turn(pentagon, past_raw):
    # a templated listing carries each flaw's signature; when the flaw's
    # turn comes, the repair or the write through its cached matrix must
    # see the same signature in the rows
    real_fresh, real_repair, real_write = lb._fresh_flaws, lb.repair, lb._write_repair
    carried, turns = {}, []

    def fresh_flaws(ls, fresh, templates):
        flaws = real_fresh(ls, fresh, templates)
        carried.clear()
        carried.update((f[:5], f[5]) for f in flaws)
        return flaws

    def at_turn(ls, f):
        if f in carried:
            assert carried[f] == lb._signature(ls, f), f
            turns.append(f)

    def repair(ls, f):
        at_turn(ls, f)
        return real_repair(ls, f)

    def write(ls, f, m):
        at_turn(ls, f)
        assert ls.signatures[lb._signature(ls, f)] is m, f
        real_write(ls, f, m)

    later = {}
    for A in (pentagon, *past_raw):
        first = lb.saturate(lb.initial_system(A), 1).repairs_done
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lb, "_fresh_flaws", fresh_flaws)
            mp.setattr(lb, "repair", repair)
            mp.setattr(lb, "_write_repair", write)
            ls = lb.saturate(lb.initial_system(A), 4)
        later[A] = len(turns)
        assert len(turns) == ls.repairs_done - first, A
        turns.clear()
    # the full relation algebra on two points has no flaw after pass 1
    assert list(later.values()) == [126, 42, 252, 42, 0]


def test_saturate_tests_a_flaw_only_on_a_signature_s_first_repair(pentagon, monkeypatch):
    # the listing lemma: a later repair with a known signature writes its
    # labels with no flaw test; calling saturate again meets no new one
    calls, real = [], lb.LabellingSystem.is_flaw
    monkeypatch.setattr(lb.LabellingSystem, "is_flaw", lambda ls, f: calls.append(f) or real(ls, f))
    ls = lb.saturate(lb.initial_system(pentagon), 6)
    assert ls.repairs_done == 2048
    assert len(calls) == len(ls.signatures) == 8
    calls.clear()
    lb.saturate(ls, 1)
    assert ls.repairs_done == 2048 + 6144
    assert len(calls) == len(ls.signatures) - 8


def test_manual_repairs_at_a_later_stage_turn_templates_off(pentagon):
    # the points of two repairs made outside saturate at the default stage
    # 3 are fresh in pass 4 without being repairs of pass 3
    ls = lb.saturate(lb.initial_system(pentagon), 2)
    ref = ref_saturate(ref_initial(pentagon), 2)
    for f in lb.find_flaws(ls, scope=3)[:2]:
        lb.repair(ls, f)
        ref_repair(ref, f)
    assert _state(ls) == _state(ref)
    lb.saturate(ls, 2)
    ref_saturate(ref, 2)
    assert ls.point_count() == 129
    assert _state(ls) == _state(ref)
    assert ls.passes_done == 4
    assert all(r.holds for r in lb.verify_representation(ls, ls.network()))


def test_a_listing_that_leaves_a_flaw_fails_composition_lower(pentagon):
    # a flaw left out of a listing alone is witnessed when its converse
    # flaw is repaired, so the first template drops a flaw and its
    # converse (the listings above must equal find_flaws, which catches
    # either drop)
    real, conv = lb._flaw_template, pentagon.converse
    dropped = set()

    def leaky(A, m, same):
        full = real(A, m, same)
        if dropped or not full:
            return full
        i, a, j, b, c, _ = full[0]
        dropped.update({(i, a, j, b, c), (j, conv[a], i, conv[c], conv[b])})
        template = tuple(e for e in full if e[:5] not in dropped)
        assert len(template) == len(full) - 2
        return template

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lb, "_flaw_template", leaky)
        ls = lb.saturate(lb.initial_system(pentagon), 4)
    assert len(dropped) == 2
    _, holds, detail = _by_name(lb.verify_representation(ls, ls.network()))["composition-lower-staged"]
    found = re.fullmatch(r"checked=\d+ excluded=\d+ flaw=\((\d+), (\d+), (\d+), (\d+), (\d+)\)", detail)
    assert not holds and found
    _, a, _, b, c = map(int, found.groups())
    assert (a, b, c) in {e[1:2] + e[3:] for e in dropped}


def _relabelled(A, perm):
    """A with atom a renamed perm[a]."""
    return validate_atom_structure(
        A.atom_count,
        [perm[e] for e in iter_bits(A.identity)],
        {perm[a]: perm[b] for a, b in enumerate(A.converse)},
        [(perm[x], perm[y], perm[z]) for x, y, z in A.cycles],
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_saturate_matches_reference_on_drawn_census_classes(census, data):
    # a relabelling reorders the flaws, and so which repair of a
    # signature comes first
    A = data.draw(st.sampled_from(census))
    perm = data.draw(st.permutations(range(A.atom_count)))
    assert_saturation_matches_reference(_relabelled(A, perm), data.draw(st.integers(1, 3)))


# ---------------------------------------------------------------------------
# Repairs that break a structural property, over non-WA structures

# e1, e2 and a self-converse d with e1 ; d = d: the flaw (0, d, 1, e1, d)
# labels (0, w) with e1
IDENTITY_B = validate_atom_structure(
    3, [0, 1], {}, [(2, 2, 0), (2, 0, 2), (0, 2, 2), (0, 0, 0), (1, 1, 1)]
)
# d ; d meets both identity atoms, so the range of d is not an atom
TWO_RANGES = validate_atom_structure(3, [0, 1], {}, [(2, 2, 0), (2, 2, 1)], auto_close=True)
# e <= r ; r with r~ = s: repairing (0, e, 0, r, r) labels (w, 0) r, then s
CLASH = validate_atom_structure(3, [0], {1: 2}, [(1, 1, 0), (2, 1, 0)], auto_close=True)

FAILING = {
    "identity-b": (
        IDENTITY_B, {(0, 0): 1, (1, 1): 0, (0, 1): 2, (1, 0): 2}, (0, 2, 1, 0, 2),
        "identity atom 0 labelling distinct points 0, 2",
    ),
    "range": (TWO_RANGES, {(0, 0): 0}, (0, 0, 0, 2, 2), "range of atom 2 is not an atom"),
    "u-equals-v-clash": (
        CLASH, {(0, 0): 0}, (0, 0, 0, 1, 1), "pair (1, 0) would carry two labels 1 and 2",
    ),
}


def _hand_built(A, label, signatures):
    ls = lb.LabellingSystem(A, signatures=signatures)
    for _ in {p for pair in label for p in pair}:
        ls._add_point(0)
    for (u, v), a in label.items():
        ls._add_label(u, a, v)
    return ls


def _raised(ls, repair, f):
    try:
        repair(ls, f)
    except lb.ConsistencyError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("recorded", [False, True])
@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_repair_raises_the_reference_message(case, recorded):
    # a system with signatures runs every check on a signature's first
    # repair, so it fails as the reference does
    A, label, f, message = FAILING[case]
    ls = _hand_built(A, label, {} if recorded else None)
    assert ls.is_flaw(f)
    assert _raised(ls, lb.repair, f) == _raised(_hand_built(A, label, None), ref_repair, f) == message
    assert ls.signatures in (None, {})


def test_a_repair_of_a_later_pair_witnesses_its_loop(a2):
    # without (0, 1), the flaw (1, d, 0, d, d) is not witnessed by a
    # repair of its converse; its repair witnesses the loop (1, e, 1, d, d)
    # listed after it, which saturate must skip as the reference does
    label = {(0, 0): 0, (1, 1): 0, (1, 0): 1}
    ls, ref = _hand_built(a2, label, None), _hand_built(a2, label, None)
    assert lb.find_flaws(ls) == [(0, 0, 0, 1, 1), (1, 1, 0, 1, 1), (1, 0, 1, 1, 1)]
    lb.saturate(ls, 2)
    ref_saturate(ref, 2)
    assert _state(ls) == _state(ref)


def test_a_flaw_without_its_converse_label_raises_a_consistency_error(a2):
    # the system above, given signatures: the signature of (1, d, 0, d, d)
    # reads the label of (0, 1), which is missing; that is an internal
    # consistency error (exit 4 from the command line), not a KeyError,
    # and the repair adds no point
    ls = _hand_built(a2, {(0, 0): 0, (1, 1): 0, (1, 0): 1}, {})
    f = (1, 1, 0, 1, 1)
    assert ls.is_flaw(f)
    with pytest.raises(lb.ConsistencyError, match=re.escape(f"flaw {f} has no repair signature")):
        lb.repair(ls, f)
    assert ls.point_count() == 2 and ls.signatures == {}


# ---------------------------------------------------------------------------
# Systems built directly walk their triangles


def test_systems_built_directly_walk_their_triangles(pentagon):
    ls = lb.saturate(lb.initial_system(pentagon), 2)
    hand = _system(pentagon, dict(ls.label), list(ls.stage))
    assert hand.signatures is None
    net = hand.network()
    assert "facts" not in vars(net)
    assert net.facts == ls.network().facts


def test_a_breaking_label_fails_composition_upper_with_the_walked_witness(pentagon):
    ls = lb.saturate(lb.initial_system(pentagon), 3)
    assert _by_name(lb.verify_representation(ls, ls.network()))["composition-upper"][1]
    label = dict(ls.label)
    u, v = next(pair for pair, a in label.items() if a == 1)
    label[(u, v)], label[(v, u)] = 2, 1  # r and s swapped on one edge
    hand = _system(pentagon, label, list(ls.stage))
    got = _by_name(lb.verify_representation(hand, hand.network()))["composition-upper"]
    witness = network(pentagon, label).upper_violation()
    assert witness is not None
    assert got == ref_labelling_upper(hand) == ("composition-upper", False, f"triangle {witness}")
