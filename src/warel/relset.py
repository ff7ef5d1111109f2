"""Relations on a finite universe, relativizations and labelled networks.

A relation is a frozenset of point pairs over a finite universe.  The
full algebra on a universe has unit U x U; relativizing to a relation E
intersects every operation (and the unit, and the identity) with E.
Relativizations of full algebras to symmetric relations that are
reflexive on their field are exactly where weakly associative algebras
live, and :func:`atom_structure_of_relativization` presents such a
relativization by atoms so the axiom classifier can be run on it.

A :class:`Network` is the object both representation pipelines end in:
atom labels on the pairs of a symmetric, reflexive unit.  It carries
the checks they share, each with its quantifier range, and
:func:`image_atom_structure` reads an atom structure back off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, FrozenSet, Iterable, Iterator, Mapping, Optional

from .core import AtomStructure, Triple, iter_bits, validate_atom_structure

BinRel = FrozenSet[tuple[int, int]]
PairLabels = Mapping[tuple[int, int], int]
Successors = dict[int, dict[int, int]]
Triangle = tuple[int, int, int, int, int, int]


def rel_inverse(r: BinRel) -> BinRel:
    return frozenset((v, u) for u, v in r)


def field_of(r: BinRel) -> frozenset[int]:
    pts = set()
    for u, v in r:
        pts.add(u)
        pts.add(v)
    return frozenset(pts)


def identity_on(points: Iterable[int]) -> BinRel:
    return frozenset((p, p) for p in points)


@dataclass(frozen=True)
class Universe:
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("universe size must be at least 1")

    def points(self) -> range:
        return range(self.size)

    def square(self) -> BinRel:
        return frozenset((u, v) for u in self.points() for v in self.points())


def atom_structure_of_relativization(
    universe: Universe, e: BinRel
) -> tuple[AtomStructure, tuple[tuple[int, int], ...]]:
    """Present the relativization of the full algebra to e by atoms.

    Atoms are the single pairs of e; returns the structure together
    with the pair order used for atom indices.  A pair of e outside
    U x U, or one whose reverse is missing from e, raises
    ``ValueError`` naming the first such pair in sorted order.
    """
    pairs = tuple(sorted(e))
    n = universe.size
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"unit pair {(u, v)} lies outside U x U for |U| = {n}")
    for u, v in pairs:
        if (v, u) not in e:
            raise ValueError(f"unit is not symmetric: {(v, u)} is missing")
    index = {p: i for i, p in enumerate(pairs)}
    ident = [index[(u, v)] for u, v in pairs if u == v]
    conv = {index[(u, v)]: index[(v, u)] for u, v in pairs if (v, u) in index}
    facts = []
    for u, v in pairs:
        for v2, w in pairs:
            if v2 != v:
                continue
            if (u, w) in index:
                facts.append((index[(u, v)], index[(v, w)], index[(u, w)]))
    names = tuple(f"p{u}_{v}" for u, v in pairs)
    A = validate_atom_structure(len(pairs), ident, conv, facts, names=names)
    return A, pairs


# ---------------------------------------------------------------------------
# Labelled point pairs


@dataclass(frozen=True)
class Network:
    """Atom labels on ordered point pairs, at most one label per pair.

    Both representation pipelines end in a network: the labelled pairs
    form the unit, and an element x is represented by the pairs whose
    label lies below x.  The index, unit, field, atom images and
    ``facts`` are computed once and cached; ``facts`` comes from one
    key intersection per labelled pair, shared by the composition
    checks and by :func:`image_atom_structure`.
    """

    algebra: AtomStructure
    label: PairLabels

    @cached_property
    def succ(self) -> Successors:
        """``succ[u][v]`` is the label of ``(u, v)``.  Rows come in
        increasing source order and list their targets in increasing
        order, so a walk along ``succ[v]`` meets third points least
        first."""
        succ: Successors = {}
        for (u, v), a in sorted(self.label.items()):
            succ.setdefault(u, {})[v] = a
        return succ

    @cached_property
    def unit(self) -> BinRel:
        return frozenset(self.label)

    @cached_property
    def field(self) -> frozenset[int]:
        return field_of(self.unit)

    @cached_property
    def images(self) -> tuple[BinRel, ...]:
        """``images[a]``: the pairs labelled with atom ``a``."""
        out: list[set[tuple[int, int]]] = [set() for _ in range(self.algebra.atom_count)]
        for pr, a in self.label.items():
            out[a].add(pr)
        return tuple(frozenset(ps) for ps in out)

    def pairs(self, element_mask: int) -> BinRel:
        """The relation representing an element: the union of the images
        of its atoms."""
        return frozenset().union(*(self.images[a] for a in iter_bits(element_mask)))

    def triangles(self) -> Iterator[Triangle]:
        """Every triangle ``(u, v, w, a, b, c)``: the pairs (u, v),
        (v, w) and (u, w) are labelled a, b and c.

        Pairs (u, v) come in label order and, for each, third points w
        in increasing order.  Exact: the walk follows adjacency, w
        ranging over ``succ[v]``, one lookup per labelled path
        u -> v -> w.
        """
        succ = self.succ
        for (u, v), a in self.label.items():
            su = succ[u]
            for w, b in succ.get(v, {}).items():
                c = su.get(w)
                if c is not None:
                    yield u, v, w, a, b, c

    @cached_property
    def facts(self) -> frozenset[Triple]:
        """The label triples ``(a, b, c)`` seen on triangles: exactly
        the atoms a, b, c with f(c) meeting f(a) ; f(b) inside the unit.
        Exact over every triangle: the third points w of a labelled pair
        (u, v) are the key intersection of ``succ[u]`` and ``succ[v]``,
        so the same triangles as :meth:`triangles`, found without its
        walk along ``succ[v]``."""
        succ = self.succ
        out: set[Triple] = set()
        for (u, v), a in self.label.items():
            su = succ[u]
            sv = succ.get(v, {})
            for w in su.keys() & sv.keys():
                out.add((a, sv[w], su[w]))
        return frozenset(out)

    def is_symmetric_reflexive(self) -> bool:
        """Exact: every pair of the unit has its reverse in the unit, and
        every point of the field its loop."""
        unit = self.unit
        return all((v, u) in unit for u, v in unit) and all(
            (p, p) in unit for p in self.field
        )

    def identity_is_diagonal(self) -> bool:
        """Exact: the identity element is represented by the loops on
        every point of the field."""
        return self.pairs(self.algebra.identity) == identity_on(self.field)

    def converse_is_exact(self) -> bool:
        """Per atom, and so for every element since atom images are
        disjoint: the image of a~ is the inverse of the image of a."""
        conv = self.algebra.converse
        return all(self.images[conv[a]] == rel_inverse(img) for a, img in enumerate(self.images))

    def upper_violation(self) -> Optional[tuple[int, int, int]]:
        """The first triangle ``(u, v, w)``, in :meth:`triangles` order,
        whose labels break ``c <= a ; b``; None when none does.  Exact
        over every triangle: decided on ``facts``, walking the triangles
        again only to name the witness."""
        comp = self.algebra.comp_atoms
        if all((1 << c) & comp[a][b] for a, b, c in self.facts):
            return None
        return next(
            (u, v, w)
            for u, v, w, a, b, c in self.triangles()
            if not (1 << c) & comp[a][b]
        )

    def lower_scan(
        self, excluded: Callable[[int, int], bool]
    ) -> tuple[int, int, Optional[tuple[int, int, int, int, int]]]:
        """Composition lower containment, staged: each labelled pair
        (u, v), label c, not ``excluded(u, v)`` needs, for every factor
        pair (b, b') of c, a point w with (u, w) labelled b and (w, v)
        labelled b'.  Pairs come in increasing order; excluded pairs are
        only counted.  Returns ``(checked, excluded, first missing)``,
        the last as ``(u, c, v, b, b')`` or None."""
        factor_pairs = self.algebra.factor_pairs
        succ = self.succ
        checked = skipped = 0
        for u, row in succ.items():
            for v, c in row.items():
                if excluded(u, v):
                    skipped += 1
                    continue
                checked += 1
                through = {(b, succ.get(w, {}).get(v)) for w, b in row.items()}
                for b, b2 in factor_pairs[c]:
                    if (b, b2) not in through:
                        return checked, skipped, (u, c, v, b, b2)
        return checked, skipped, None


def image_atom_structure(net: Network) -> AtomStructure:
    """Rebuild an atom structure from a network's atom images.

    Identity atoms are those whose images sit on the diagonal, the
    converse of a is the atom whose image is the inverse of a's, and
    the composition facts are the network's ``facts``: (a, b, c) is a
    fact when some triangle carries the labels (a, b, c).  Exact, from
    the ``facts`` the network computes once and caches.  When the map is an
    embedding this reproduces the original structure exactly.
    """
    A, images = net.algebra, net.images
    n = A.atom_count
    ident = [a for a in range(n) if all(u == v for u, v in images[a])]
    conv = {}
    inv_index = {rel_inverse(images[a]): a for a in range(n)}
    for a in range(n):
        b = inv_index.get(images[a])
        if b is None:
            raise ValueError(f"converse image of atom {a} is not an atom image")
        conv[a] = b
    return validate_atom_structure(n, ident, conv, net.facts, names=A.names or None)
