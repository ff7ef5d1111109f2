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
them.  A witness search walks the shorter of ``out[u]`` and ``inn[v]``,
once per pair in :func:`find_flaws`.  The map from elements to relations
is an embedding up to the staged guarantees of :func:`verify_representation`.

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
  rows ``out``.  So each signature is decided once, and the system's
  ``facts`` are read off the label matrices of its signatures.
- Flaw locality.  Let w be a point made in pass k-1 by a repair of
  ``(u, a, v, b, c)``.  Pass k-1 repairs only flaws between points
  older than k-1, so at the start of pass k w's rows hold exactly the
  five labels of its repair, and a witness of a pair through w is one
  of u, v, w.  Pairs between points older than k-1 are flaw-free after
  pass k-1, and two points of stage k-1 share no label.  So pass k's
  flaws are those on the pairs through each such w, a function of the
  3x3 label matrix of (u, v, w), and so of the repair's signature:
  :func:`saturate` lists them from a template per signature.  The
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

    def has_witness(self, u: int, b: int, c: int, v: int) -> bool:
        """Some w has (u, w) labelled b and (w, v) labelled c.  Walks the
        shorter of ``out[u]`` and ``inn[v]`` and looks the other edge up
        in the other row."""
        row, col = self.out.get(u, {}), self.inn.get(v, {})
        if len(row) <= len(col):
            for w, x in row.items():
                if x == b and col.get(w) == c:
                    return True
        else:
            for w, x in col.items():
                if x == c and row.get(w) == b:
                    return True
        return False

    def is_flaw(self, f: Flaw) -> bool:
        u, a, v, b, c = f
        if self.out.get(u, {}).get(v) != a:
            return False
        if not (1 << a) & self.algebra.comp_atoms[b][c]:
            return False
        return not self.has_witness(u, b, c, v)


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
    is decided by one walk, :meth:`~warel.relset.Network.unwitnessed`."""
    flaws: list[Flaw] = []
    net, out, stage = ls.network(), ls.out, ls.stage
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

    In a system with ``signatures`` the checks after the flaw test are
    decided once per signature (the module's signature lemma): the
    first repair with a signature runs them all, and a later one only
    writes its five labels, read off the cached matrix of (u, v, w), in
    the same order.  The last check reads the new witness w alone: the
    flaw had no witness before, and only pairs through w change, so it
    is a flaw afterwards exactly when w does not witness it.
    """
    if not ls.is_flaw(f):
        raise ValueError(f"not a flaw (already witnessed or unlabelled): {f}")
    u, a, v, b, c = f
    A = ls.algebra
    stage = ls.passes_done + 1
    known = ls.signatures
    sig = m = None
    if known is not None:
        sig = _signature(ls, f)
        m = known.get(sig)
    if m is None:
        rng_b = A.atom_ranges[b]
        if bin(rng_b).count("1") != 1:
            raise ConsistencyError(f"range of atom {b} is not an atom")
        w = ls._add_point(stage)
        ls._add_label(u, b, w)
        ls._add_label(w, c, v)
        ls._add_label(w, A.converse[b], u)
        ls._add_label(v, A.converse[c], w)
        ls._add_label(w, rng_b.bit_length() - 1, w)
        m = _check_triangles_through(ls, (u, v, w))
        if ls.out[u].get(w) != b or ls.out[w].get(v) != c:
            raise ConsistencyError(f"repair did not remove the flaw {f}")
        if known is not None:
            known[sig] = m
    else:
        w = ls._add_point(stage)
        out, inn = ls.out, ls.inn
        # m is row by row over (u, v, w): m[2] = lab(u,w), m[5] = lab(v,w), ...
        for x, y, lab in ((u, w, m[2]), (w, v, m[7]), (w, u, m[6]), (v, w, m[5]), (w, w, m[8])):
            out.setdefault(x, {})[y] = lab
            inn.setdefault(y, {})[x] = lab
    ls.repairs_done += 1
    return ls


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
    order.  The guard: the lemma needs every stage-(k-1) point to be a
    repair of pass k-1, so templates are used only when no point had a
    stage at or above the call's first pass when the call began (a
    :func:`repair` outside ``saturate`` can leave one).

    Each listed flaw is tested once, by :func:`repair`, or skipped.  A
    repair of (u, v) can witness only flaws on (v, u), (u, u) and
    (v, v), through its fresh point.  So a listed flaw on (x, y) with
    x < y is still a flaw when its turn comes, and one with x >= y is
    skipped when a point made earlier in the pass witnesses it
    (:func:`_witnessed_since`)."""
    if passes < 0:
        raise ValueError("passes must be nonnegative")
    max_points = core.POINT_BUDGET
    first = ls.passes_done + 1
    last = first + passes - 1
    templated = ls.signatures is not None and max(ls.stage, default=0) < first
    templates: dict[Signature, tuple[Flaw, ...]] = {}
    fresh: Optional[list[tuple[int, int, int, Signature]]] = None
    for k in range(first, last + 1):
        flaws = find_flaws(ls, scope=k) if fresh is None else _fresh_flaws(ls, fresh, templates)
        fresh = [] if templated and k < last else None
        start = ls.point_count()
        for f in flaws:
            u, _, v, _, _ = f
            if u >= v and _witnessed_since(ls.out, start, f):
                continue
            if ls.point_count() >= max_points:
                raise GuardExceeded(
                    f"saturation exceeded the point budget {max_points}"
                )
            if fresh is not None:
                fresh.append((u, v, ls.point_count(), _signature(ls, f)))
            repair(ls, f)
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


def _flaw_template(A: AtomStructure, m: Matrix, same: bool) -> tuple[Flaw, ...]:
    """The flaws on the pairs through w of a repair whose points (u, v, w)
    carry the label matrix ``m``, as (i, a, j, b, c) with i and j indices
    into (u, v, w), while w's rows hold only that repair's labels: a
    witness of such a pair is then one of u, v, w.  ``same`` is u == v."""
    ends = (0, 2) if same else (0, 1, 2)
    return tuple(
        (i, m[3 * i + j], j, b, c)
        for i in ends for j in ends if 2 in (i, j)
        for b, c in A.factor_pairs[m[3 * i + j]]
        if not any(m[3 * i + z] == b and m[3 * z + j] == c for z in ends)
    )


def _fresh_flaws(
    ls: LabellingSystem,
    fresh: list[tuple[int, int, int, Signature]],
    templates: dict[Signature, tuple[Flaw, ...]],
) -> list[Flaw]:
    """The flaws at the start of a pass, from the (u, v, w, signature) of
    each repair of the previous pass, in :func:`find_flaws`' order."""
    flaws: list[Flaw] = []
    for u, v, w, sig in fresh:
        template = templates.get(sig)
        if template is None:
            template = templates[sig] = _flaw_template(ls.algebra, ls.signatures[sig], sig[6])
        pts = (u, v, w)
        flaws += [(pts[i], a, pts[j], b, c) for i, a, j, b, c in template]
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
