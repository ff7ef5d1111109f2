"""The adjacency-indexed composition checks against brute-force scans.

The reference functions below scan every point for every labelled pair,
or compose whole atom images, exactly as the checks did before they
walked triangles through adjacency.  On small random label maps,
consistent or deliberately corrupted, the indexed checks must return
the same ``(name, holds, detail)``.  ``ref_element_checks`` keeps the
element-level loops that ``verify_representation`` replaced by per-atom
certificates; the verdicts must agree on all eight lines.  The
set-based ``Network`` checks, the triangle check of a repair and the
witness search of a labelling system are kept here in their old form
as well, and ``ref_find_flaws`` searches the witnesses of each factor
pair on its own where ``find_flaws`` walks a pair's row once.
``ref_lower_scan`` is the predicate-driven lower scan: it walks every
labelled pair, asks a predicate whether to skip it, and intersects the
whole rows ``out[u]`` and ``inn[v]``; ``Network.lower_scan`` filters the
labelled pairs by the ages of their points and stops a pair's walk
early.  ``ref_final_lower`` gives each pair the length of its longer
point, as the pair-length lemma of ``build_universe`` says, and asks
that length for one step of headroom.
``ref_image_structure_by_inverse_index`` finds each converse by hashing
the inverse of every atom image, where ``image_atom_structure`` looks up
the labels of reversed pairs.  The image test checks ``Network.sizes``,
``pairs_below`` and the report's image lines, which read ``label``,
against per-atom frozensets of the labelled pairs (``ref_image_lines``
for the lines).  ``pairs_below`` is the relation a network represents
an element by, for the tests here and in ``test_reduct.py`` and
``test_labelling.py``.  ``network`` builds a network's rows from a label
map, for every test module that makes networks by hand.  The walk over
a network's triangles takes the pairs in row order, so the references
that name the first bad triangle (``ref_final_upper``,
``ref_labelling_upper``) take them in ``row_order``.
"""

import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from warel import cli
from warel import labelling as lb
from warel import reduct
from warel.core import AtomStructure, classify, iter_bits, validate_atom_structure
from warel.fileformat import Report
from warel.relset import (
    Network,
    Universe,
    atom_structure_of_relativization,
    field_of,
    image_atom_structure,
)
from warel.suitable import build_suitable
from warel.trails import build_universe

def network(A, label):
    """The network of a label map, on rows built from it: each point's
    pairs in ``label`` order, as ``LabellingSystem.network`` and the
    pair stage keep them."""
    out, inn = {}, {}
    for (u, v), a in label.items():
        out.setdefault(u, {})[v] = a
        inn.setdefault(v, {})[u] = a
    return Network(A, out, inn)


def labels(net):
    """A network's labels as a dict, read off its rows in row order."""
    return {(u, v): a for u, row in net.rows[0].items() for v, a in row.items()}


def row_order(label):
    """The pairs of ``label`` in the order a network's rows hold them:
    grouped by their first point, the points in order of first
    appearance, and each group in ``label`` order."""
    first = {}
    for u, _ in label:
        first.setdefault(u, len(first))
    return sorted(label, key=lambda pr: first[pr[0]])


def pairs_below(net, element_mask):
    """The relation representing an element: the pairs whose label lies
    below it."""
    return frozenset(pr for pr, a in net.label.items() if element_mask >> a & 1)


# ---------------------------------------------------------------------------
# Reference scans: O(pairs x points) and O(atoms^2) relation compositions


def rel_compose(r, s):
    return frozenset((u, w) for u, v in r for v2, w in s if v2 == v)


def rel_inverse(r):
    return frozenset((v, u) for u, v in r)


def identity_on(points):
    return frozenset((p, p) for p in points)


def ref_final_upper(A, label):
    pts_in_unit = {u for u, _ in label} | {v for _, v in label}
    comp = A.comp_atoms
    bad = None
    for u, v in row_order(label):
        a = label[(u, v)]
        for w in sorted(pts_in_unit):
            b = label.get((v, w))
            if b is None:
                continue
            c = label.get((u, w))
            if c is None:
                continue
            if not (1 << c) & comp[a][b]:
                bad = (u, v, w)
                break
        if bad:
            break
    return ("composition-upper-exact", bad is None, str(bad or ""))


def ref_final_lower(A, label, bound, lengths):
    pts_in_unit = {u for u, _ in label} | {v for _, v in label}
    checked = 0
    excluded = 0
    bad = None
    for (u, v), c in sorted(label.items()):
        if max(lengths[u], lengths[v]) + 1 > bound:
            excluded += 1
            continue
        checked += 1
        for b, cc in A.factor_pairs[c]:
            hit = False
            for w in pts_in_unit:
                if label.get((u, w)) != b:
                    continue
                if label.get((w, v)) == cc:
                    hit = True
                    break
            if not hit:
                bad = (u, c, v, b, cc)
                break
        if bad:
            break
    return (
        "composition-lower-nonfrontier",
        bad is None,
        f"checked={checked} excluded={excluded}" + ("" if bad is None else f" missing={bad}"),
    )


def ref_lower_scan(net, excluded):
    factor_pairs = net.algebra.factor_pairs
    out, inn = net.rows
    checked = skipped = 0
    for u in sorted(out):
        row = out[u]
        for v in sorted(row):
            c = row[v]
            if excluded(u, v):
                skipped += 1
                continue
            checked += 1
            col = inn[v]
            through = {(row[w], col[w]) for w in row.keys() & col.keys()}
            for b, b2 in factor_pairs[c]:
                if (b, b2) not in through:
                    return checked, skipped, (u, c, v, b, b2)
    return checked, skipped, None


def ref_images(A, label):
    return tuple(
        frozenset(pr for pr, b in label.items() if b == a) for a in range(A.atom_count)
    )


def ref_is_symmetric_reflexive(label):
    unit = frozenset(label)
    return all((v, u) in unit for u, v in unit) and all(
        (p, p) in unit for p in field_of(unit)
    )


def ref_identity_is_diagonal(A, label):
    images = ref_images(A, label)
    ident = frozenset().union(*(images[a] for a in range(A.atom_count) if (1 << a) & A.identity))
    return ident == identity_on(field_of(frozenset(label)))


def ref_converse_is_exact(A, label):
    images = ref_images(A, label)
    conv = A.converse
    return all(images[conv[a]] == rel_inverse(img) for a, img in enumerate(images))


def ref_final_structural(A, label):
    """The first four lines of ``final_representation``, from whole sets."""
    unit = frozenset(label)
    images = ref_images(A, label)
    total = sum(map(len, images))
    return [
        ("unit-symmetric-reflexive", ref_is_symmetric_reflexive(label), f"|unit|={len(unit)}"),
        ("atom-images-partition", all(images) and total == len(unit), f"{total} pairs"),
        ("identity-to-diagonal", ref_identity_is_diagonal(A, label), ""),
        ("converse-exact", ref_converse_is_exact(A, label), ""),
    ]


def ref_has_witness(ls, u, b, c, v):
    return any(ls.label.get((u, w)) == b and ls.label.get((w, v)) == c for w in range(ls.point_count()))


def ref_check_triangles_through(ls, pts):
    A = ls.algebra
    for u in pts:
        for w in pts:
            aw = ls.label.get((u, w))
            if aw is None:
                continue
            for v in pts:
                bw = ls.label.get((w, v))
                if bw is None:
                    continue
                cw = ls.label.get((u, v))
                if cw is None:
                    continue
                if not (1 << cw) & A.comp_atoms[aw][bw]:
                    raise lb.ConsistencyError(
                        f"triangle ({u},{w},{v}) labels ({aw},{bw},{cw}) "
                        "violate the composition bound"
                    )


def ref_labelling_upper(ls):
    A = ls.algebra
    bad = None
    for u, w in row_order(ls.label):
        a = ls.label[(u, w)]
        for v in range(ls.point_count()):
            b = ls.label.get((w, v))
            if b is None:
                continue
            cl = ls.label.get((u, v))
            if cl is None:
                continue
            if not (1 << cl) & A.comp_atoms[a][b]:
                bad = (u, w, v)
                break
        if bad:
            break
    return ("composition-upper", bad is None, "" if bad is None else f"triangle {bad}")


def ref_labelling_lower(ls, stage_bound):
    A = ls.algebra
    checked = 0
    excluded = 0
    bad = None
    for (u, v), a in sorted(ls.label.items()):
        if ls.stage[u] >= stage_bound or ls.stage[v] >= stage_bound:
            excluded += 1
            continue
        checked += 1
        for b, c in A.factor_pairs[a]:
            if not ls.has_witness(u, b, c, v):
                bad = (u, a, v, b, c)
                break
        if bad:
            break
    return (
        "composition-lower-staged",
        bad is None,
        f"checked={checked} excluded={excluded}" + ("" if bad is None else f" flaw={bad}"),
    )


def ref_element_checks(ls, stage_bound):
    """Each line of ``verify_representation`` decided over every element
    (pair) of the algebra from the element images themselves, the
    composition lines from relation composition and point scans."""
    A = ls.algebra
    els = A.elements()
    unit = frozenset(ls.label)
    field = {u for u, _ in unit} | {v for _, v in unit}
    images = [frozenset(pr for pr, a in ls.label.items() if (1 << a) & x) for x in els]
    return {
        "join-preserved": all(images[x | y] == images[x] | images[y] for x in els for y in els),
        "complement-preserved": all(images[A.full & ~x] == unit - images[x] for x in els),
        "injective": len(set(images)) == len(images),
        "identity-to-diagonal": images[A.identity] == {(p, p) for p in field},
        "converse-preserved": all(images[A.conv_el(x)] == rel_inverse(images[x]) for x in els),
        "composition-upper": all(
            rel_compose(images[x], images[y]) & unit <= images[A.compose(x, y)]
            for x in els
            for y in els
        ),
        "composition-lower-staged": ref_labelling_lower(ls, stage_bound)[1],
        "unit-symmetric-reflexive": ref_is_symmetric_reflexive(ls.label),
    }


def ref_image_atom_structure(A, images, unit):
    n = A.atom_count
    ident = [a for a in range(n) if all(u == v for u, v in images[a])]
    inv_index = {rel_inverse(images[a]): a for a in range(n)}
    conv = {}
    for a in range(n):
        b = inv_index.get(images[a])
        if b is None:
            raise ValueError(f"converse image of atom {a} is not an atom image")
        conv[a] = b
    facts = []
    for a in range(n):
        for b in range(n):
            comp = rel_compose(images[a], images[b]) & unit
            for c in range(n):
                if images[c] & comp:
                    facts.append((a, b, c))
    return validate_atom_structure(n, ident, conv, facts, names=A.names or None)


# ---------------------------------------------------------------------------
# Random label maps over at most six points


def _model_label(A, u, v):
    """The a2 complete graph (e on the diagonal, d elsewhere) or the
    pentagon's strict order (r upwards, s downwards)."""
    if u == v:
        return 0
    if A.atom_count == 2:
        return 1
    return 1 if u < v else 2


@st.composite
def label_maps(draw, A):
    n = draw(st.integers(1, 6))
    square = [(u, v) for u in range(n) for v in range(n)]
    atoms = st.integers(0, A.atom_count - 1)
    if draw(st.booleans()):
        label = {pr: draw(atoms) for pr in square if draw(st.booleans())}
    else:
        edges = [(u, v) for u, v in square if u < v]
        dropped = draw(st.sets(st.sampled_from(edges))) if edges else set()
        label = {
            (u, v): _model_label(A, u, v)
            for u, v in square
            if (min(u, v), max(u, v)) not in dropped
        }
        for pr, a in draw(st.lists(st.tuples(st.sampled_from(square), atoms), max_size=3)):
            label[pr] = a
    order = draw(st.permutations(sorted(label)))
    return {pr: label[pr] for pr in order}


def _fill(ls, label):
    """Give ``ls`` exactly the labels of ``label``, its rows filled in
    ``label`` order, with no check of the structural properties."""
    ls.out.clear()
    ls.inn.clear()
    for (u, v), a in label.items():
        ls.out.setdefault(u, {})[v] = a
        ls.inn.setdefault(v, {})[u] = a


def _system(A, label, stages):
    ls = lb.LabellingSystem(A)
    ls.stage = list(stages)
    ls.passes_done = 2
    _fill(ls, label)
    return ls


def _by_name(results):
    return {r.name: (r.name, r.holds, r.detail) for r in results}


@pytest.fixture(scope="module", params=["a2", "pentagon"])
def algebra(request):
    return request.getfixturevalue(request.param)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_final_representation_matches_reference(algebra, data):
    A = algebra
    label = data.draw(label_maps(A))
    bound = data.draw(st.integers(1, 4))
    n = 1 + max(max(pr) for pr in label) if label else 1
    lengths = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    universe = SimpleNamespace(bound=bound, lengths=lengths)
    _, checks = reduct.final_representation(universe, network(A, label))
    assert [(r.name, r.holds, r.detail) for r in checks] == ref_final_structural(A, label) + [
        ref_final_upper(A, label),
        ref_final_lower(A, label, bound, lengths),
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_labelling_checks_match_reference(algebra, data):
    A = algebra
    label = data.draw(label_maps(A))
    n = 1 + max(max(pr) for pr in label) if label else 1
    stages = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ls = _system(A, label, stages)
    ls.passes_done = stage_bound = data.draw(st.integers(0, 2))
    upper = ref_labelling_upper(ls)
    lower = ref_labelling_lower(ls, stage_bound)
    got = lb.verify_representation(ls, ls.network())
    by_name = _by_name(got)
    assert by_name["composition-upper"] == upper
    assert by_name["composition-lower-staged"] == lower
    assert [(r.name, r.holds) for r in got] == list(ref_element_checks(ls, stage_bound).items())
    assert all(r.detail == "" for r in got[:5])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lower_scan_matches_predicate_scan(algebra, data):
    label = data.draw(label_maps(algebra))
    n = 1 + max(max(pr) for pr in label) if label else 1
    age = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    bound = data.draw(st.integers(0, 4))
    net = network(algebra, label)
    # a pair is checked when its older point is below the bound
    got = net.lower_scan(age, bound)
    assert got == ref_lower_scan(net, lambda u, v: max(age[u], age[v]) >= bound)


def test_lower_scan_matches_predicate_scan_on_a_saturated_system(pentagon):
    ls = lb.saturate(lb.initial_system(pentagon), 3)
    rng = random.Random(0)
    keys = sorted(ls.label)
    outcomes = set()
    for trial in range(40):
        label = dict(ls.label)
        if trial % 2:
            # relabel one pair: some factor pair may lose its witness
            pr = rng.choice(keys)
            label[pr] = rng.randrange(pentagon.atom_count)
        # after three passes every pair between points of stages 0 to 2
        # has its witnesses; random ages also check pairs of stage 3
        age = [rng.randrange(4) for _ in range(ls.point_count())] if trial % 4 == 3 else ls.stage
        bound = rng.randint(0, 4)
        net = network(pentagon, label)
        got = net.lower_scan(age, bound)
        assert got == ref_lower_scan(net, lambda u, v: max(age[u], age[v]) >= bound)
        outcomes.add(got[2] is None)
    assert outcomes == {True, False}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_atom_structure_matches_reference(algebra, data):
    A = algebra
    label = data.draw(label_maps(A))
    images = {a: frozenset(pr for pr, b in label.items() if b == a) for a in range(A.atom_count)}
    unit = frozenset(label)
    net = network(A, label)
    assert net.sizes == tuple(len(images[a]) for a in range(A.atom_count))
    for mask in data.draw(st.lists(st.integers(0, A.full), min_size=1, max_size=4)):
        assert pairs_below(net, mask) == frozenset().union(*(images[a] for a in iter_bits(mask)))
    report = Report()
    cli._report_images(report, "final", net)
    assert report.lines == ref_image_lines(A, images, "final")
    try:
        want = ref_image_atom_structure(A, images, unit)
    except ValueError as exc:
        with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
            image_atom_structure(net)
        return
    got = image_atom_structure(net)
    assert (got.identity, got.converse, got.cycles) == (want.identity, want.converse, want.cycles)


def ref_image_lines(A, images, stage):
    """The ``<stage>.image.<atom>`` report lines, from per-atom
    frozensets: the 16 least pairs, then the total when there are more."""
    out = []
    for a in range(A.atom_count):
        pairs = images[a]
        shown = " ".join(f"({u},{v})" for u, v in sorted(pairs)[:16])
        more = "" if len(pairs) <= 16 else f" ... ({len(pairs)} total)"
        out.append(f"{stage}.image.{A.atom_name(a)} = {shown + more}")
    return out


def ref_image_structure_by_inverse_index(net):
    """``image_atom_structure`` as it was: each converse found by hashing
    the inverse of every atom image."""
    A = net.algebra
    n = A.atom_count
    images = [frozenset(pr for pr, b in net.label.items() if b == a) for a in range(n)]
    ident = [a for a in range(n) if all(u == v for u, v in images[a])]
    inv_index = {rel_inverse(images[a]): a for a in range(n)}
    conv = {}
    for a in range(n):
        b = inv_index.get(images[a])
        if b is None:
            raise ValueError(f"converse image of atom {a} is not an atom image")
        conv[a] = b
    return validate_atom_structure(n, ident, conv, net.facts, names=A.names or None)


def _image_outcome(build, net):
    try:
        B = build(net)
    except ValueError as exc:
        return "ValueError", str(exc)
    return B.identity, B.converse, B.cycles


@pytest.fixture(scope="module")
def census_final_networks(a2, pentagon, census):
    out = []
    for A in (a2, pentagon, *census):
        uni = build_universe(build_suitable(A), 3)
        out.append(reduct.build_pair_structure(A, uni))
    return out


def test_image_converse_lookup_matches_inverse_index(census_final_networks):
    # the census final networks, then each with one pair relabelled and
    # with the reverse of one pair dropped
    rng = random.Random(17)
    outcomes = set()
    for net in census_final_networks:
        A, label = net.algebra, labels(net)
        nets = [net]
        pairs = sorted(label)
        for _ in range(6):
            pr = rng.choice(pairs)
            relabelled = dict(label)
            relabelled[pr] = rng.choice([a for a in range(A.atom_count) if a != label[pr]])
            u, v = rng.choice(pairs)
            dropped = {p: a for p, a in label.items() if p != (v, u)}
            nets += [network(A, relabelled), network(A, dropped)]
        for n in nets:
            got = _image_outcome(image_atom_structure, n)
            assert got == _image_outcome(ref_image_structure_by_inverse_index, n)
            outcomes.add(got[0] == "ValueError")
    assert outcomes == {True, False}


@st.composite
def relativizing_units(draw):
    """Symmetric units on at most three points, reflexive on their field."""
    n = draw(st.integers(1, 3))
    field = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    edges = [(u, v) for u in field for v in field if u < v]
    chosen = draw(st.sets(st.sampled_from(edges))) if edges else set()
    unit = {(p, p) for p in field} | chosen | {(v, u) for u, v in chosen}
    return Universe(n), frozenset(unit)


@settings(max_examples=60, deadline=None)
@given(relativizing_units())
def test_image_atom_structure_round_trips_relativizations(drawn):
    universe, unit = drawn
    A, pairs = atom_structure_of_relativization(universe, unit)
    assert classify(A).is_wa
    rebuilt = image_atom_structure(network(A, {p: i for i, p in enumerate(pairs)}))
    assert (rebuilt.identity, rebuilt.converse, rebuilt.cycles) == (A.identity, A.converse, A.cycles)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_facts_are_the_triangle_labels(algebra, data):
    net = network(algebra, data.draw(label_maps(algebra)))
    assert net.facts == {(a, b, c) for _, _, _, a, b, c in net.triangles()}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_network_checks_match_reference_on_any_converse(algebra, data):
    # a directly built AtomStructure need not have an involutive converse;
    # the per-pair converse check must keep the per-atom meaning there too
    n = algebra.atom_count
    conv = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    A = AtomStructure(n, algebra.identity, conv, algebra.cycles)
    label = data.draw(label_maps(A))
    net = network(A, label)
    assert net.converse_is_exact() == ref_converse_is_exact(A, label)
    assert net.identity_is_diagonal() == ref_identity_is_diagonal(A, label)
    assert net.is_symmetric_reflexive() == ref_is_symmetric_reflexive(label)
    assert net.field == field_of(frozenset(label))


CORRUPTIONS = (
    "none", "deleted-pair", "one-way-pair", "incoming-only-point", "missing-loop", "diversity-loop", "non-involutive",
)


@st.composite
def corrupted_label_maps(draw, A):
    """``(kind, algebra, label)``: a label map on at most five points whose
    loops carry identity atoms and whose other pairs carry diversity
    atoms, the reverse of each pair its converse, in a drawn order, with
    at most one corruption of ``kind``: a labelled pair deleted, a pair
    added without its reverse, a new point with only incoming pairs, a
    loop deleted, a loop relabelled by a diversity atom, or the map read
    in a copy of the algebra whose converse is no involution."""
    conv = A.converse
    atoms = st.integers(0, A.atom_count - 1)
    diverse = [a for a in range(A.atom_count) if not (1 << a) & A.identity]
    n = draw(st.integers(1, 5))
    label = {(u, u): draw(st.sampled_from(list(iter_bits(A.identity)))) for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if diverse and draw(st.booleans()):
                a = draw(st.sampled_from(diverse))
                label[(u, v)], label[(v, u)] = a, conv[a]
    kind = draw(st.sampled_from(CORRUPTIONS))
    if kind == "deleted-pair":
        del label[draw(st.sampled_from(sorted(label)))]
    elif kind == "one-way-pair":
        # the second point is new when the map has only one
        u, v = draw(st.permutations(range(max(n, 2))))[:2]
        label[(u, v)] = draw(atoms)
        label.pop((v, u), None)
    elif kind == "incoming-only-point":
        for u in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            label[(u, n)] = draw(atoms)
    elif kind == "missing-loop":
        u = draw(st.integers(0, n - 1))
        del label[(u, u)]
    elif kind == "diversity-loop" and diverse:
        u = draw(st.integers(0, n - 1))
        label[(u, u)] = draw(st.sampled_from(diverse))
    elif kind == "non-involutive":
        a = draw(atoms)
        b = draw(atoms.filter(lambda b: b != conv[a]))
        A = AtomStructure(A.atom_count, A.identity, conv[:a] + (b,) + conv[a + 1 :], A.cycles)
    order = draw(st.permutations(sorted(label)))
    return kind, A, {pr: label[pr] for pr in order}


def _rebuilt(build, *args):
    """The rebuilt structure by value, or the type and message raised."""
    try:
        B = build(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return B.identity, B.converse, B.cycles


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_shared_walk_matches_the_references_on_one_corruption(algebra, census, data):
    # the four lines read off the network's one walk over its rows, and
    # the sizes it counts, against the whole-set references, on maps that
    # are converse-consistent but for one corruption
    A = data.draw(st.sampled_from([algebra, *census]))
    kind, A, label = data.draw(corrupted_label_maps(A))
    net = network(A, label)
    images = ref_images(A, label)
    assert net.sizes == tuple(map(len, images))
    assert net.is_symmetric_reflexive() == ref_is_symmetric_reflexive(label)
    assert net.converse_is_exact() == ref_converse_is_exact(A, label)
    assert net.identity_is_diagonal() == ref_identity_is_diagonal(A, label)
    assert _rebuilt(image_atom_structure, net) == _rebuilt(
        ref_image_atom_structure, A, images, frozenset(label)
    )
    if kind == "none":
        assert net.is_symmetric_reflexive() and net.converse_is_exact() and net.identity_is_diagonal()


def test_converse_check_on_a_non_involution(a2):
    A = AtomStructure(2, a2.identity, (0, 0), a2.cycles)
    # every pair's reverse carries the converse label, yet the image of
    # 0 = conv(1) is not the inverse of the empty image of 1
    assert not network(A, {(0, 0): 0}).converse_is_exact()
    assert not ref_converse_is_exact(A, {(0, 0): 0})


# a2 has the identity e = 0 and the diversity atom d = 1
IDENTITY_COUNT_CASES = {
    "diagonal": ({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, True),
    # two identity pairs on two field points, but one is off the diagonal
    "identity-off-diagonal": ({(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}, False),
    "point-without-loop": ({(0, 0): 0, (0, 1): 1, (1, 0): 1}, False),
    "loop-with-diversity-label": ({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, False),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_COUNT_CASES))
def test_identity_count_edge_cases(a2, case):
    label, holds = IDENTITY_COUNT_CASES[case]
    assert network(a2, label).identity_is_diagonal() == ref_identity_is_diagonal(a2, label) == holds


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_identity_count_matches_reference_when_identity_leaves_the_diagonal(algebra, data):
    # identity loops on every point and diversity labels elsewhere, then
    # some loops relabelled by a diversity atom and as many other pairs
    # by an identity atom: the identity pairs still number the field's
    # points, and only their places tell the check that they fail
    A = algebra
    ident = [a for a in range(A.atom_count) if (1 << a) & A.identity]
    diverse = [a for a in range(A.atom_count) if not (1 << a) & A.identity]
    n = data.draw(st.integers(2, 5))
    label = {(u, u): data.draw(st.sampled_from(ident)) for u in range(n)}
    off = [(u, v) for u in range(n) for v in range(n) if u != v]
    label.update((pr, data.draw(st.sampled_from(diverse))) for pr in off if data.draw(st.booleans()))
    moved = data.draw(st.integers(0, n))
    for u in data.draw(st.permutations(range(n)))[:moved]:
        label[u, u] = data.draw(st.sampled_from(diverse))
    for pr in data.draw(st.permutations(off))[:moved]:
        label[pr] = data.draw(st.sampled_from(ident))
    order = data.draw(st.permutations(sorted(label)))
    label = {pr: label[pr] for pr in order}
    assert network(A, label).identity_is_diagonal() == ref_identity_is_diagonal(A, label)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_has_witness_matches_reference(algebra, data):
    A = algebra
    label = data.draw(label_maps(A))
    n = 1 + max(max(pr) for pr in label) if label else 1
    ls = _system(A, label, [0] * n)
    atoms = range(A.atom_count)
    for u in range(n):
        for v in range(n):
            for b in atoms:
                for c in atoms:
                    assert ls.has_witness(u, b, c, v) == ref_has_witness(ls, u, b, c, v)


def test_has_witness_walks_either_index(pentagon):
    ls = lb.saturate(lb.initial_system(pentagon), 3)
    atoms = range(pentagon.atom_count)
    found = {"out": 0, "inn": 0}
    for u in range(ls.point_count()):
        for v in range(ls.point_count()):
            for b in atoms:
                for c in atoms:
                    want = ref_has_witness(ls, u, b, c, v)
                    assert ls.has_witness(u, b, c, v) == want
                    row, col = len(ls.out[u]), len(ls.inn[v])
                    if want and row != col:
                        found["out" if row < col else "inn"] += 1
    assert found["out"] and found["inn"], found


def ref_find_flaws(ls, scope=None):
    """The flaw search with one witness search per factor pair."""
    out = []
    for u, v in sorted(ls.label):
        if scope is not None and (ls.stage[u] >= scope or ls.stage[v] >= scope):
            continue
        a = ls.label[(u, v)]
        for b, c in ls.algebra.factor_pairs[a]:
            if not ls.has_witness(u, b, c, v):
                out.append((u, a, v, b, c))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_find_flaws_matches_reference(algebra, data):
    A = algebra
    label = data.draw(label_maps(A))
    n = 1 + max(max(pr) for pr in label) if label else 1
    stages = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ls = _system(A, label, stages)
    scope = data.draw(st.none() | st.integers(0, 4))
    assert lb.find_flaws(ls, scope) == ref_find_flaws(ls, scope)


def test_find_flaws_matches_reference_on_saturated_systems(pentagon, two_identities):
    for A in (pentagon, two_identities):
        for passes in range(4):
            ls = lb.saturate(lb.initial_system(A), passes)
            for scope in (None, *range(passes + 2)):
                assert lb.find_flaws(ls, scope) == ref_find_flaws(ls, scope)


def _raised(check, ls, pts):
    try:
        check(ls, pts)
    except lb.ConsistencyError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_triangle_check_matches_reference(algebra, data):
    A = algebra
    label = data.draw(label_maps(A))
    n = 1 + max(max(pr) for pr in label) if label else 1
    ls = _system(A, label, [0] * n)
    point = st.integers(0, n - 1)
    pts = (data.draw(point), data.draw(point), data.draw(point))
    assert _raised(lb._check_triangles_through, ls, pts) == _raised(
        ref_check_triangles_through, ls, pts
    )
