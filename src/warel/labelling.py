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
fixed order.  The labels of a saturated system then define a map from
algebra elements to relations over the points which is an embedding up
to the staged guarantees checked by :func:`verify_representation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core import AtomStructure, GuardExceeded, classify, iter_bits
from .relset import Successors, composition_violation, successors

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

    def points(self) -> list[int]:
        return sorted(self.stage)

    def point_count(self) -> int:
        return len(self.stage)

    def triples(self) -> Iterator[tuple[int, int, int]]:
        for (u, v), a in self.label.items():
            yield (u, a, v)

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
        outs = self.out_index.get((u, b))
        if not outs:
            return False
        ins = self.in_index.get((v, c))
        if not ins:
            return False
        if len(outs) <= len(ins):
            small, probe = outs, set(ins)
        else:
            small, probe = ins, set(outs)
        return any(w in probe for w in small)

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
    endpoints at a stage below ``passes``."""
    if passes < 0:
        raise ValueError("passes must be nonnegative")
    for k in range(ls.passes_done + 1, ls.passes_done + passes + 1):
        for f in find_flaws(ls, scope=k):
            if max_points is not None and ls.point_count() >= max_points:
                raise GuardExceeded(
                    f"saturation exceeded the point budget {max_points}"
                )
            if ls.is_flaw(f):
                repair(ls, f, stage=k)
        ls.passes_done = k
    return ls


# ---------------------------------------------------------------------------
# The induced representation


@dataclass(frozen=True)
class Representation:
    system: LabellingSystem

    def pairs(self, element_mask: int) -> frozenset[tuple[int, int]]:
        return frozenset(
            pair for pair, a in self.system.label.items() if (1 << a) & element_mask
        )

    @property
    def unit(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.system.label)

    def atom_images(self) -> dict[int, frozenset[tuple[int, int]]]:
        out: dict[int, set[tuple[int, int]]] = {
            a: set() for a in range(self.system.algebra.atom_count)
        }
        for pair, a in self.system.label.items():
            out[a].add(pair)
        return {a: frozenset(ps) for a, ps in out.items()}


def build_representation(ls: LabellingSystem) -> Representation:
    return Representation(ls)


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    detail: str = ""


def _full_element_checks(rep: Representation) -> list[CheckResult]:
    ls = rep.system
    A = ls.algebra
    out = []
    unit = rep.unit
    idrel = frozenset((p, p) for p in ls.points())

    ok = all(
        rep.pairs(x | y) == rep.pairs(x) | rep.pairs(y)
        for x in A.elements()
        for y in A.elements()
    )
    out.append(CheckResult("join-preserved", ok))

    ok = all(rep.pairs(A.full & ~x) == unit - rep.pairs(x) for x in A.elements())
    out.append(CheckResult("complement-preserved", ok))

    images = [rep.pairs(x) for x in A.elements()]
    ok = len(set(images)) == len(images)
    out.append(CheckResult("injective", ok))

    out.append(CheckResult("identity-to-diagonal", rep.pairs(A.identity) == idrel))

    ok = all(
        rep.pairs(A.conv_el(x)) == frozenset((v, u) for u, v in rep.pairs(x))
        for x in A.elements()
    )
    out.append(CheckResult("converse-preserved", ok))
    return out


def _certified_element_checks(rep: Representation) -> list[CheckResult]:
    # Same five statements, decided through their atom-level certificates:
    # labels are functional and total on the unit by construction, so the
    # per-atom image family partitions the unit; each element image is the
    # union of its atoms' images, which settles the join/complement checks
    # for every element pair at once.
    ls = rep.system
    A = ls.algebra
    out = []
    images = rep.atom_images()
    total = sum(len(p) for p in images.values())
    partition_ok = total == len(ls.label)
    out.append(CheckResult("join-preserved", partition_ok, "via atom partition"))
    out.append(CheckResult("complement-preserved", partition_ok, "via atom partition"))
    out.append(
        CheckResult(
            "injective",
            all(images[a] for a in range(A.atom_count)),
            "every atom image nonempty",
        )
    )
    idrel = frozenset((p, p) for p in ls.points())
    ident_image = frozenset().union(*(images[e] for e in iter_bits(A.identity)))
    out.append(CheckResult("identity-to-diagonal", ident_image == idrel))
    conv_ok = all(
        images[A.converse[a]] == frozenset((v, u) for u, v in images[a])
        for a in range(A.atom_count)
    )
    out.append(CheckResult("converse-preserved", conv_ok, "per-atom converse"))
    return out


def _composition_checks(
    rep: Representation, succ: Successors, stage_bound: int
) -> list[CheckResult]:
    # Containment of composed images in the image of the composition is
    # property (v) pointwise; the reverse containment is flaw-freeness,
    # guaranteed only for pairs whose points predate ``stage_bound``.
    ls = rep.system
    A = ls.algebra
    out = []
    bad = composition_violation(ls.label, succ, A.comp_atoms)
    out.append(
        CheckResult(
            "composition-upper",
            bad is None,
            "" if bad is None else f"triangle {bad}",
        )
    )

    checked = 0
    excluded = 0
    bad2 = None
    for (u, v), a in ls.label.items():
        if ls.stage[u] >= stage_bound or ls.stage[v] >= stage_bound:
            excluded += 1
            continue
        checked += 1
        for b, c in A.factor_pairs[a]:
            if not ls.has_witness(u, b, c, v):
                bad2 = (u, a, v, b, c)
                break
        if bad2:
            break
    out.append(
        CheckResult(
            "composition-lower-staged",
            bad2 is None,
            f"checked={checked} excluded={excluded}"
            + ("" if bad2 is None else f" flaw={bad2}"),
        )
    )
    return out


def _element_composition_holds(rep: Representation, succ: Successors) -> bool:
    # f(x) ; f(y), cut to the unit, lies in f(x ; y) for every element
    # pair (x, y); the pairs (u, w) of f(x) ; f(y) are reached from each
    # (u, v) in f(x) along succ[v], keeping the steps labelled in y.
    A = rep.system.algebra
    for x in A.elements():
        fx = rep.pairs(x)
        for y in A.elements():
            target = A.compose(x, y)
            for u, v in fx:
                su = succ[u]
                for w, b in succ.get(v, {}).items():
                    if not (1 << b) & y:
                        continue
                    c = su.get(w)
                    if c is not None and not (1 << c) & target:
                        return False
    return True


def verify_representation(
    ls: LabellingSystem, stage_bound: int, mode: str = "full"
) -> tuple[CheckResult, ...]:
    """Verify the induced map: join, complement, injectivity, identity
    and converse on the whole system, composition containment exactly,
    and the reverse composition containment on pairs whose points were
    created before ``stage_bound``.

    Composition upper containment is exact in both modes: every
    triangle is enumerated through adjacency, the third point ranging
    over ``succ[v]``, one lookup per labelled path.  ``mode='full'``
    also decides join and composition for each of the 4**atoms element
    pairs, and complement, injectivity and converse for each element;
    composition follows adjacency from every pair of f(x).
    ``mode='certified'`` decides the same statements through their
    per-atom certificates, one pass over the labels.  The reverse
    containment looks up each pair's factor pairs in the system's
    (point, atom) indices.
    """
    if stage_bound > ls.passes_done:
        raise ValueError(
            f"stage bound {stage_bound} exceeds completed passes {ls.passes_done}"
        )
    rep = build_representation(ls)
    succ = successors(ls.label)
    if mode == "full":
        out = _full_element_checks(rep)
        ok = _element_composition_holds(rep, succ)
        staged = _composition_checks(rep, succ, stage_bound)
        out.append(CheckResult("composition-upper", ok and staged[0].holds))
        out.append(staged[1])
    elif mode == "certified":
        out = _certified_element_checks(rep)
        out.extend(_composition_checks(rep, succ, stage_bound))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return tuple(out)


def unit_is_symmetric_reflexive(rep: Representation) -> bool:
    unit = rep.unit
    pts = rep.system.points()
    if frozenset((v, u) for u, v in unit) != unit:
        return False
    return all((p, p) in unit for p in pts)
