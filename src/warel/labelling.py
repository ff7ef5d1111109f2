"""Step-by-step construction of relativized set representations.

A labelling system over an atom structure is a set of points together
with atom labels on some ordered point pairs, subject to:

  (i)   each pair carries at most one label;
  (ii)  every identity atom labels some reflexive pair;
  (iii) a pair (u, v) carries an identity-atom label exactly when u = v;
  (iv)  if (u, v) carries a, then (v, u) carries the converse of a;
  (v)   for labelled (u, w), (w, v), (u, v) with labels a, b, c the
        fact c <= a ; b holds.

A flaw is a labelled pair (u, v) with label a <= b ; c but no point w
with (u, w) labelled b and (w, v) labelled c.  Repairing a flaw adds
one fresh point and five labels; saturation runs repair passes in a
fixed order.  The labels form a :class:`~warel.relset.Network`; its
rows ``out[u][w] = inn[w][u]`` are their one store, ``label`` a view of
them.  The one witness search is :meth:`~warel.relset.Network.unwitnessed`,
a walk over the shorter of ``out[u]`` and ``inn[v]``, made once per pair
by :func:`find_flaws` and read by :meth:`LabellingSystem.is_flaw`.  The
map from elements to relations is an embedding up to the staged
guarantees of :func:`verify_representation`.

Three lemmas make a system that :func:`initial_system` and
:func:`repair` built cheap to grow and to check (step-by-step games are
local: Hirsch and Hodkinson, *Relation Algebras by Games*, 2002):

- Repair locality.  A repair labels only pairs through its fresh point
  w, and a label never changes once written.  So every triangle of such
  a system lies over one repair's points (u, v, w), or is an initial
  loop, and :func:`repair` decides it when it makes it.
- Repair signatures.  Every check :func:`repair` makes after
  :meth:`LabellingSystem.is_flaw`, and the five labels it writes, are a
  function of the signature ``(lab(u,u), a, lab(v,u), lab(v,v), b, c,
  u == v)`` of the flaw ``(u, a, v, b, c)``, with ``lab`` read from the
  rows ``out``.  So each signature is decided once: :func:`repair`
  records its matrix, and :func:`saturate` alone tells a known
  signature from a new one, writing a known one's labels straight from
  the cached matrix (:func:`_write_repair`).  The system's ``facts``
  are read off the label matrices of its signatures.
- Flaw locality.  Let w be a point made in pass k-1 by a repair of
  ``(u, a, v, b, c)``.  Pass k-1 repairs only flaws between points
  older than k-1, so at the start of pass k w's rows hold exactly the
  five labels of its repair, and a witness of a pair through w is one
  of u, v, w.  Pairs between points older than k-1 are flaw-free after
  pass k-1, and two points of stage k-1 share no label.  So pass k's
  flaws are those on the pairs through each such w, a function of the
  3x3 label matrix of (u, v, w), and so of the repair's signature:
  :func:`saturate` lists them from a template per signature, and each
  template entry carries its flaw's own signature, read off the same
  matrix (the child-signature lemma of :func:`_flaw_template`).  The
  guard: every stage-(k-1) point must be a repair of pass k-1, which
  holds when pass k-1 ran in the same :func:`saturate` call and no
  point had a stage at or above that call's first pass when it began.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from . import core
from .core import (
    AtomStructure, CheckResult, ConsistencyError, GuardExceeded, Matrix, classify, iter_bits, matrix_facts
)
from .relset import LabelView, Network, Successors

Flaw = tuple[int, int, int, int, int]  # (u, a, v, b, c)
# (lab(u,u), a, lab(v,u), lab(v,v), b, c, u == v) of a flaw (u, a, v, b, c)
Signature = tuple[int, int, int, int, int, int, bool]
# a flaw listed by saturate, with its signature when the listing knows it
Listed = tuple[int, int, int, int, int, Optional[Signature]]
# the flaws through a repair's fresh point, as (i, a, j, b, c, signature)
# with i and j indices into its (u, v, w): see _flaw_template
Template = tuple[tuple[int, int, int, int, int, Signature], ...]


class LabellingSystem:
    def __init__(self, algebra: AtomStructure, signatures: Optional[dict[Signature, Matrix]] = None) -> None:
        self.algebra = algebra
        self.stage: list[int] = []  # stage[pid]: the pass that created the point
        self.passes_done = 0
        # the one store of the labels: out[u][w] = inn[w][u] = label of (u, w)
        self.out: Successors = {}
        self.inn: Successors = {}
        self.repairs_done = 0
        # the matrix of (u, v, w) for each repair signature passed so far;
        # None unless initial_system and repair wrote every label
        self.signatures = signatures

    @property
    def label(self) -> LabelView:
        return LabelView(self.out)

    def point_count(self) -> int:
        return len(self.stage)

    def _add_point(self, stage: int) -> int:
        self.stage.append(stage)
        return len(self.stage) - 1

    def _add_label(self, u: int, a: int, v: int) -> None:
        old = self.out.get(u, {}).get(v)
        if old is not None:
            if old != a:
                raise ConsistencyError(
                    f"pair ({u}, {v}) would carry two labels {old} and {a}"
                )
            return
        if (1 << a) & self.algebra.identity and u != v:
            raise ConsistencyError(
                f"identity atom {a} labelling distinct points {u}, {v}"
            )
        if u == v and not (1 << a) & self.algebra.identity:
            raise ConsistencyError(f"diversity atom {a} labelling ({u}, {u})")
        self.out.setdefault(u, {})[v] = a
        self.inn.setdefault(v, {})[u] = a

    def network(self) -> Network:
        """The labels as a :class:`~warel.relset.Network` built on the
        system's own rows, the one store of the labels.

        A system with ``signatures`` also seeds the network's ``facts``:
        they are the initial loops' ``(e, e, e)`` together with the 27
        index choices of each signature's matrix.  Proof: in a triangle
        on three distinct points, let z be the newest.  Only z's own
        repair labels pairs between z and older points, so the other
        two are that repair's u and v, and the triangle is an index
        choice of its matrix.  A triangle with a repeated point lies in
        the matrix of any repair through its points, or is an initial
        loop.  Labels never change once written, so each matrix is
        final, and each of its index choices is a triangle.  A system
        built directly has no ``signatures``, and its network walks."""
        net = Network(self.algebra, self.out, self.inn)
        if self.signatures is not None:
            loops = {(e, e, e) for e in iter_bits(self.algebra.identity)}
            vars(net)["facts"] = frozenset(loops.union(*map(matrix_facts, self.signatures.values())))
        return net

    def is_flaw(self, f: Flaw) -> bool:
        """(u, v) carries a, and no point witnesses its factor pair (b, c)
        (:meth:`~warel.relset.Network.unwitnessed`)."""
        u, a, v, b, c = f
        if self.out.get(u, {}).get(v) != a:
            return False
        return (b, c) in Network(self.algebra, self.out, self.inn).unwitnessed(u, v)


def initial_system(A: AtomStructure) -> LabellingSystem:
    """One point per identity atom, each carrying its own self-label."""
    report = classify(A)
    if not report.is_wa:
        raise ValueError(
            "labelling needs a WA structure; failed axioms: "
            + ", ".join(report.failed_names())
        )
    if not A.identity:
        raise ValueError("labelling needs at least one identity atom")
    ls = LabellingSystem(A, signatures={})
    for e in iter_bits(A.identity):
        p = ls._add_point(0)
        ls._add_label(p, e, p)
    return ls


def find_flaws(ls: LabellingSystem, scope: Optional[int] = None) -> list[Flaw]:
    """All flaws, ordered by (u, v, a, b, c); with ``scope`` only those
    whose endpoints were both created before pass ``scope``.  A pair
    (u, v) is the entry v of the row ``out[u]``, so the sorted points,
    each with its sorted row, give the pairs in (u, v) order.  Each pair
    is decided by one walk, :meth:`~warel.relset.Network.unwitnessed`,
    on a bare network of the rows, with no ``facts`` seeded."""
    flaws: list[Flaw] = []
    net, out, stage = Network(ls.algebra, ls.out, ls.inn), ls.out, ls.stage
    bound = float("inf") if scope is None else scope
    for u in sorted(p for p in out if stage[p] < bound):
        row = out[u]
        flaws += [(u, row[v], v, b, c) for v in sorted(row) if stage[v] < bound for b, c in net.unwitnessed(u, v)]
    return flaws


def _signature(ls: LabellingSystem, f: Flaw) -> Signature:
    """The repair signature of the flaw f, read from the rows.  A system
    built directly can lack a label the signature reads (the loops on u
    and v, or (v, u)); that raises :class:`ConsistencyError`."""
    u, a, v, b, c = f
    try:
        ru, rv = ls.out[u], ls.out[v]
        return (ru[u], a, rv[u], rv[v], b, c, u == v)
    except KeyError:
        raise ConsistencyError(
            f"flaw {f} has no repair signature: ({u},{u}), ({v},{u}) or ({v},{v}) is unlabelled"
        ) from None


def _check_triangles_through(ls: LabellingSystem, pts: tuple[int, ...]) -> Matrix:
    """Property (v) on every ordered triple (u, w, v) over ``pts``, in
    that order, decided on the label matrix of ``pts`` by
    :meth:`~warel.core.AtomStructure.matrix_violation`.  Returns the
    matrix."""
    rows = [ls.out.get(x, {}) for x in pts]
    m = tuple([row.get(y) for row in rows for y in pts])
    bad = ls.algebra.matrix_violation(m)
    if bad is not None:
        x, y, z = bad
        raise ConsistencyError(
            f"triangle ({pts[x]},{pts[y]},{pts[z]}) labels "
            f"({m[3 * x + y]},{m[3 * y + z]},{m[3 * x + z]}) violate the composition bound"
        )
    return m


def repair(ls: LabellingSystem, f: Flaw) -> LabellingSystem:
    """Fix one flaw by adding a fresh point w and the five labels
    (u,b,w), (w,c,v), (w,b~,u), (v,c~,w), (w, rng b, w).  The point's
    stage is ``ls.passes_done + 1``, the pass under way inside
    :func:`saturate`.

    Mutates and returns the system.  Raises if f is not currently a
    flaw, or if any structural property would break (which cannot
    happen over a WA input and signals a bad algebra otherwise).

    Every call runs the flaw test and every check.  In a system with
    ``signatures`` it then records the matrix of (u, v, w) under the
    flaw's signature (the module's signature lemma); only
    :func:`saturate` reads that table, and it calls this for a
    signature's first repair alone.  Afterwards w witnesses the flaw:
    ``_add_label`` never overwrites a label, so (u, w) keeps b and
    (w, v) keeps c, or a write raises (as when u = v and c~ is not b).
    """
    if not ls.is_flaw(f):
        raise ValueError(f"not a flaw (already witnessed or unlabelled): {f}")
    known = ls.signatures
    sig = None if known is None else _signature(ls, f)
    u, a, v, b, c = f
    A = ls.algebra
    rng_b = A.atom_ranges[b]
    if bin(rng_b).count("1") != 1:
        raise ConsistencyError(f"range of atom {b} is not an atom")
    w = ls._add_point(ls.passes_done + 1)
    ls._add_label(u, b, w)
    ls._add_label(w, c, v)
    ls._add_label(w, A.converse[b], u)
    ls._add_label(v, A.converse[c], w)
    ls._add_label(w, rng_b.bit_length() - 1, w)
    m = _check_triangles_through(ls, (u, v, w))
    if known is not None:
        known[sig] = m
    ls.repairs_done += 1
    return ls


def _write_repair(ls: LabellingSystem, f: Flaw, m: Matrix) -> None:
    """The repair of the flaw f whose signature has the cached matrix m:
    a fresh point w at stage ``ls.passes_done + 1`` and its five labels,
    read off m, with the rows' keys in the order of :func:`repair`'s
    writes (u,w), (w,v), (w,u), (v,w), (w,w): w's own rows list v, u, w
    and u, v, w.  No check runs; the signature lemma says they all
    passed on the signature's first repair.  The rows of u and v exist,
    since f's signature reads their loops."""
    u, _, v, _, _ = f
    w = ls._add_point(ls.passes_done + 1)
    out, inn = ls.out, ls.inn
    # m is row by row over (u, v, w): m[2] = lab(u,w), m[5] = lab(v,w), ...
    out[u][w] = m[2]
    out[v][w] = m[5]
    out[w] = {v: m[7], u: m[6], w: m[8]}
    inn[u][w] = m[6]
    inn[v][w] = m[7]
    inn[w] = {u: m[2], v: m[5], w: m[8]}
    ls.repairs_done += 1


def saturate(ls: LabellingSystem, passes: int) -> LabellingSystem:
    """Run repair passes.  Pass k fixes, in order, every flaw whose
    endpoints were created before pass k; afterwards no flaw has both
    endpoints at a stage below ``passes``.  ``core.POINT_BUDGET``, read
    when the call starts, bounds the points: a repair that would add a
    point beyond it raises ``GuardExceeded``, and a listed flaw that an
    earlier repair of the pass already witnessed adds none.

    The first pass of a call lists its flaws with :func:`find_flaws`.  A
    later pass k of a system with ``signatures`` lists them from the
    repairs of pass k-1 (the module's flaw-locality lemma): each fresh
    point's flaws are a template of its repair's signature, computed
    once per call, and the instances are sorted into :func:`find_flaws`'
    order, each with its own signature (:func:`_flaw_template`).  The
    guard: the lemma needs every stage-(k-1) point to be a repair of
    pass k-1, so templates are used only when no point had a stage at
    or above the call's first pass when the call began (a
    :func:`repair` outside ``saturate`` can leave one).

    The listing lemma: a listed flaw is still a flaw when its turn
    comes exactly when ``_witnessed_since`` does not skip it, so no
    listed flaw is tested again.  Proof.  At the start of pass k
    the listing is exactly the flaws between points of stage below k:
    :func:`find_flaws` scans every such pair, and a template listing
    equals that scan by flaw locality.  Two facts hold through the
    pass.  A label never changes, and each label the pass writes is on
    a pair through a point it made, so the labels between older points,
    and with them every older point's verdict as a witness of a listed
    flaw, stay as they were.  And the repair of (u, v) through its fresh
    point w labels (x, w) and (w, y) only for x, y in {u, v, w}, so of
    the listed pairs w can witness only (u, v) itself, for that flaw
    alone since (u, w) and (w, v) carry its b and c, and (v, u), (u, u)
    and (v, v).  The pass repairs in increasing (u, v) order, so a flaw
    on (x, y) with x < y is never one of these for an earlier repair:
    (x, y) = (v, u) would need (u, v) > (x, y).  It is still a flaw.  For
    x >= y the only possible witnesses are the points made since the
    pass started, which ``_witnessed_since`` walks exactly.

    So a flaw whose signature has a cached matrix is written straight
    from it (:func:`_write_repair`), here alone; only a signature's
    first repair goes through :func:`repair`, with the flaw test and
    every check.  In a system without ``signatures`` every repair does."""
    if passes < 0:
        raise ValueError("passes must be nonnegative")
    max_points = core.POINT_BUDGET
    first = ls.passes_done + 1
    last = first + passes - 1
    known = ls.signatures
    templated = known is not None and max(ls.stage, default=0) < first
    templates: dict[Signature, Template] = {}
    fresh: Optional[list[tuple[int, int, int, Signature]]] = None
    for k in range(first, last + 1):
        if fresh is None:
            listed: list[Listed] = [f + (None,) for f in find_flaws(ls, scope=k)]
        else:
            listed = _fresh_flaws(ls, fresh, templates)
        fresh = [] if templated and k < last else None
        start = ls.point_count()
        for u, a, v, b, c, sig in listed:
            f = (u, a, v, b, c)
            if u >= v and _witnessed_since(ls.out, start, f):
                continue
            w = ls.point_count()
            if w >= max_points:
                raise GuardExceeded(
                    f"saturation exceeded the point budget {max_points}"
                )
            m = None
            if known is not None:
                if sig is None:
                    sig = _signature(ls, f)
                m = known.get(sig)
            if fresh is not None:
                fresh.append((u, v, w, sig))
            if m is None:
                repair(ls, f)
            else:
                _write_repair(ls, f, m)
        ls.passes_done = k
    return ls


def _witnessed_since(out: Successors, start: int, f: Flaw) -> bool:
    """A point numbered ``start`` or later witnesses the flaw f.  Such a
    point w is fresh after ``start``, and a repair adds (u, w) to
    ``out[u]`` only for its fresh w, so these points are the last keys
    of ``out[u]``: the walk stops at the first older one."""
    u, _, v, b, c = f
    for w, x in reversed(out[u].items()):
        if w < start:
            return False
        if x == b and out[w].get(v) == c:
            return True
    return False


def _flaw_template(A: AtomStructure, m: Matrix, same: bool) -> Template:
    """The flaws on the pairs through w of a repair whose points (u, v, w)
    carry the label matrix ``m``, as (i, a, j, b, c, sig) with i and j
    indices into (u, v, w), while w's rows hold only that repair's
    labels: a witness of such a pair is then one of u, v, w.  ``same``
    is u == v.

    The child-signature lemma: ``sig`` is the signature of the flaw
    (x, a, y, b, c) with x, y the points at i and j, at any time after
    the repair, namely ``(m[4i], a, m[3j+i], m[4j], b, c, i == j)``.
    The three labels a signature reads, lab(x,x), lab(y,x) and lab(y,y),
    are entries of the matrix of (u, v, w): ``m`` holds lab(p, q) at
    ``3p' + q'`` for the indices p', q' of p and q.  A label never
    changes once written, so they are still those entries.  And x = y
    exactly when i = j, since u, v and w are distinct, or, when u = v,
    the ends taken are only u and w."""
    ends = (0, 2) if same else (0, 1, 2)
    return tuple(
        (i, m[3 * i + j], j, b, c, (m[4 * i], m[3 * i + j], m[3 * j + i], m[4 * j], b, c, i == j))
        for i in ends for j in ends if 2 in (i, j)
        for b, c in A.factor_pairs[m[3 * i + j]]
        if not any(m[3 * i + z] == b and m[3 * z + j] == c for z in ends)
    )


def _fresh_flaws(
    ls: LabellingSystem,
    fresh: list[tuple[int, int, int, Signature]],
    templates: dict[Signature, Template],
) -> list[Listed]:
    """The flaws at the start of a pass, each with its signature, from
    the (u, v, w, signature) of each repair of the previous pass, in
    :func:`find_flaws`' order."""
    flaws: list[Listed] = []
    for u, v, w, sig in fresh:
        template = templates.get(sig)
        if template is None:
            template = templates[sig] = _flaw_template(ls.algebra, ls.signatures[sig], sig[6])
        pts = (u, v, w)
        flaws += [(pts[i], a, pts[j], b, c, child) for i, a, j, b, c, child in template]
    flaws.sort(key=itemgetter(0, 2, 3, 4))
    return flaws


# ---------------------------------------------------------------------------
# The induced representation


def verify_representation(ls: LabellingSystem, net: Network) -> tuple[CheckResult, ...]:
    """Verify the map induced by the labels, one path for every system.

    ``net`` is the network of the labels, :meth:`LabellingSystem.network`
    in ``represent``, which also prints its images, so its cached image
    sizes and facts are built once.

    Each line's range:

    - ``join-preserved`` and ``complement-preserved``: exact for every
      element (pair), decided by their lemma.  An element's image is the
      union of its atoms' images, so both hold exactly when the atom
      images partition the unit.  The partition lemma: each ``out[u]``
      is a dict, so a pair of the unit carries one label, and the images
      are disjoint and cover the unit.  The lines stay in the report,
      which the benchmark's reference pins.
    - ``injective``: exact for every element pair, since over a
      partition two elements share an image only when some atom image
      is empty.
    - ``identity-to-diagonal``: exact, :meth:`Network.identity_is_diagonal`.
    - ``converse-preserved``: exact for every element, decided per atom
      by :meth:`Network.converse_is_exact`.
    - ``composition-upper``: exact over every triangle,
      :meth:`Network.upper_violation`; the first bad triangle is the
      witness.
    - ``composition-lower-staged``: staged, ``Network.lower_scan`` on
      the pairs whose points were both created before the last
      completed pass (``ls.stage`` below ``ls.passes_done``), which
      :func:`saturate` leaves without flaws; the rest are counted as
      excluded.

    - ``unit-symmetric-reflexive``: exact,
      :meth:`Network.is_symmetric_reflexive`.

    The five element lines and the unit line carry no detail.
    """
    bad = net.upper_violation()
    checked, excluded, flaw = net.lower_scan(ls.stage, ls.passes_done)
    return (
        CheckResult("join-preserved", True),
        CheckResult("complement-preserved", True),
        CheckResult("injective", all(net.sizes)),
        CheckResult("identity-to-diagonal", net.identity_is_diagonal()),
        CheckResult("converse-preserved", net.converse_is_exact()),
        CheckResult("composition-upper", bad is None, "" if bad is None else f"triangle {bad}"),
        CheckResult(
            "composition-lower-staged",
            flaw is None,
            f"checked={checked} excluded={excluded}"
            + ("" if flaw is None else f" flaw={flaw}"),
        ),
        CheckResult("unit-symmetric-reflexive", net.is_symmetric_reflexive()),
    )
