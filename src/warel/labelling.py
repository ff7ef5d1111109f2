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
fixed order.  The labels of a saturated system form a
:class:`~warel.relset.Network`, a map from algebra elements to relations
over the points which is an embedding up to the staged guarantees
checked by :func:`verify_representation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import AtomStructure, CheckResult, GuardExceeded, classify, iter_bits
from .relset import Network

Flaw = tuple[int, int, int, int, int]  # (u, a, v, b, c)


class ConsistencyError(RuntimeError):
    """A repair broke one of the structural properties (i)-(v)."""


@dataclass
class LabellingSystem:
    algebra: AtomStructure
    stage: dict[int, int] = field(default_factory=dict)  # point id -> creation pass
    label: dict[tuple[int, int], int] = field(default_factory=dict)
    passes_done: int = 0
    # out_index[(u, b)] = sorted-insertion list of w with label (u, w) = b
    out_index: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    in_index: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    repairs_done: int = 0

    def point_count(self) -> int:
        return len(self.stage)

    def _add_point(self, stage: int) -> int:
        pid = len(self.stage)
        self.stage[pid] = stage
        return pid

    def _add_label(self, u: int, a: int, v: int) -> None:
        old = self.label.get((u, v))
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
        self.label[(u, v)] = a
        self.out_index.setdefault((u, a), []).append(v)
        self.in_index.setdefault((v, a), []).append(u)

    def has_witness(self, u: int, b: int, c: int, v: int) -> bool:
        """Some w has (u, w) labelled b and (w, v) labelled c.  Walks the
        shorter of the two index lists and looks the other edge up in
        ``label``."""
        outs = self.out_index.get((u, b))
        if not outs:
            return False
        ins = self.in_index.get((v, c))
        if not ins:
            return False
        label = self.label
        if len(outs) <= len(ins):
            for w in outs:
                if label.get((w, v)) == c:
                    return True
        else:
            for w in ins:
                if label.get((u, w)) == b:
                    return True
        return False

    def is_flaw(self, f: Flaw) -> bool:
        u, a, v, b, c = f
        if self.label.get((u, v)) != a:
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
    ls = LabellingSystem(A)
    for e in iter_bits(A.identity):
        p = ls._add_point(0)
        ls._add_label(p, e, p)
    return ls


def find_flaws(ls: LabellingSystem, scope: Optional[int] = None) -> list[Flaw]:
    """All flaws, ordered by (u, v, a, b, c); with ``scope`` only those
    whose endpoints were both created before pass ``scope``."""
    out: list[Flaw] = []
    A = ls.algebra
    for (u, v) in sorted(ls.label):
        if scope is not None and (ls.stage[u] >= scope or ls.stage[v] >= scope):
            continue
        a = ls.label[(u, v)]
        for b, c in A.factor_pairs[a]:
            if not ls.has_witness(u, b, c, v):
                out.append((u, a, v, b, c))
    return out


def _check_triangles_through(ls: LabellingSystem, pts: tuple[int, ...]) -> None:
    """Property (v) on every ordered triple (u, w, v) over ``pts``,
    reading the label matrix of ``pts`` once."""
    comp = ls.algebra.comp_atoms
    get = ls.label.get
    rows = [[get((x, y)) for y in pts] for x in pts]
    for u, row in zip(pts, rows):
        for w, aw, wrow in zip(pts, row, rows):
            if aw is None:
                continue
            for v, bw, cw in zip(pts, wrow, row):
                if bw is None or cw is None:
                    continue
                if not (1 << cw) & comp[aw][bw]:
                    raise ConsistencyError(
                        f"triangle ({u},{w},{v}) labels ({aw},{bw},{cw}) "
                        "violate the composition bound"
                    )


def repair(ls: LabellingSystem, f: Flaw, stage: Optional[int] = None) -> LabellingSystem:
    """Fix one flaw by adding a fresh point w and the five labels
    (u,b,w), (w,c,v), (w,b~,u), (v,c~,w), (w, rng b, w).

    Mutates and returns the system.  Raises if f is not currently a
    flaw, or if any structural property would break (which cannot
    happen over a WA input and signals a bad algebra otherwise).
    """
    if not ls.is_flaw(f):
        raise ValueError(f"not a flaw (already witnessed or unlabelled): {f}")
    u, a, v, b, c = f
    A = ls.algebra
    if stage is None:
        stage = ls.passes_done + 1
    rng_b = A.rng_atom(b)
    if bin(rng_b).count("1") != 1:
        raise ConsistencyError(f"range of atom {b} is not an atom")
    w = ls._add_point(stage)
    ls._add_label(u, b, w)
    ls._add_label(w, c, v)
    ls._add_label(w, A.converse[b], u)
    ls._add_label(v, A.converse[c], w)
    ls._add_label(w, rng_b.bit_length() - 1, w)
    _check_triangles_through(ls, (u, v, w))
    if ls.is_flaw(f):
        raise ConsistencyError(f"repair did not remove the flaw {f}")
    ls.repairs_done += 1
    return ls


def saturate(
    ls: LabellingSystem, passes: int, max_points: Optional[int] = None
) -> LabellingSystem:
    """Run repair passes.  Pass k fixes, in order, every flaw whose
    endpoints were created before pass k; afterwards no flaw has both
    endpoints at a stage below ``passes``.  ``max_points`` bounds the
    points: a repair that would add a point beyond it raises
    ``GuardExceeded``, and a listed flaw that an earlier repair of the
    pass already witnessed adds none."""
    if passes < 0:
        raise ValueError("passes must be nonnegative")
    for k in range(ls.passes_done + 1, ls.passes_done + passes + 1):
        for f in find_flaws(ls, scope=k):
            if not ls.is_flaw(f):
                continue
            if max_points is not None and ls.point_count() >= max_points:
                raise GuardExceeded(
                    f"saturation exceeded the point budget {max_points}"
                )
            repair(ls, f, stage=k)
        ls.passes_done = k
    return ls


# ---------------------------------------------------------------------------
# The induced representation


def verify_representation(
    ls: LabellingSystem, stage_bound: int, net: Optional[Network] = None
) -> tuple[CheckResult, ...]:
    """Verify the map induced by the labels, one path for every system.

    ``net`` is the system's network ``Network(ls.algebra, ls.label)``
    when the caller already holds it, so its cached rows, image sizes
    and facts are built once; by default it is built here.

    Each line's range:

    - ``join-preserved`` and ``complement-preserved``: exact for every
      element (pair), decided once on the atom images.  An element's
      image is the union of its atoms' images, so both hold exactly
      when the atom images partition the unit, that is when their sizes
      add up to the unit's.  Lemma: both always hold.  ``label`` maps
      each pair of the unit to one atom, so the images are disjoint and
      cover the unit, and ``Network.sizes`` counts the values of that
      mapping, which sum to its length.  The lines stay in the report,
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
      the pairs whose points were both created before ``stage_bound``;
      the rest are counted as excluded.

    - ``unit-symmetric-reflexive``: exact,
      :meth:`Network.is_symmetric_reflexive`.

    The five element lines and the unit line carry no detail.
    """
    if stage_bound > ls.passes_done:
        raise ValueError(
            f"stage bound {stage_bound} exceeds completed passes {ls.passes_done}"
        )
    if net is None:
        net = Network(ls.algebra, ls.label)
    partition_ok = sum(net.sizes) == len(net.label)
    bad = net.upper_violation()
    stage = ls.stage
    checked, excluded, flaw = net.lower_scan(
        [(u, v) for u, v in net.label if stage[u] < stage_bound and stage[v] < stage_bound]
    )
    return (
        CheckResult("join-preserved", partition_ok),
        CheckResult("complement-preserved", partition_ok),
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
