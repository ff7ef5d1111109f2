"""Relations on a finite universe, relativizations and labelled networks.

A relation is a frozenset of point pairs over a finite universe.  The
full algebra on a universe has unit U x U; relativizing to a relation E
intersects every operation (and the unit, and the identity) with E.
Relativizations of full algebras to symmetric relations that are
reflexive on their field are exactly where weakly associative algebras
live, and :func:`atom_structure_of_relativization` presents such a
relativization by atoms so the axiom classifier can be run on it.

A :class:`Network` is the object both representation pipelines end in:
atom labels on the pairs of a symmetric, reflexive unit, kept once in
its rows.  It carries the checks they share, each with its quantifier
range, and :func:`image_atom_structure` reads an atom structure back off it.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import groupby
from typing import FrozenSet, Iterator, Optional, Sequence

from .core import AtomStructure, Frozen, Triple, iter_bits, validate_atom_structure

BinRel = FrozenSet[tuple[int, int]]
Successors = dict[int, dict[int, int]]
Triangle = tuple[int, int, int, int, int, int]


def field_of(r: BinRel) -> frozenset[int]:
    pts = set()
    for u, v in r:
        pts.add(u)
        pts.add(v)
    return frozenset(pts)


class Universe(Frozen):
    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("universe size must be at least 1")
        object.__setattr__(self, "size", size)


def atom_structure_of_relativization(
    universe: Universe, e: BinRel
) -> tuple[AtomStructure, tuple[tuple[int, int], ...]]:
    """Present the relativization of the full algebra to e by atoms.

    Atoms are the single pairs of e; returns the structure together
    with the pair order used for atom indices.  A pair of e outside
    U x U, a pair whose reverse is missing from e, or a point of the
    field without its loop (p, p) raises ``ValueError`` naming the first
    such pair in sorted order.
    """
    pairs = tuple(sorted(e))
    n = universe.size
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"unit pair {(u, v)} lies outside U x U for |U| = {n}")
    for u, v in pairs:
        if (v, u) not in e:
            raise ValueError(f"unit is not symmetric: {(v, u)} is missing")
    for p in sorted(field_of(e)):
        if (p, p) not in e:
            raise ValueError(f"unit is not reflexive on its field: {(p, p)} is missing")
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


class LabelView(Mapping):
    """``{(u, v): label}`` read through the rows ``out``; no copy."""

    def __init__(self, out: Successors) -> None:
        self._out = out

    def __getitem__(self, pair: tuple[int, int]) -> int:
        return self._out.get(pair[0], {})[pair[1]]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((u, v) for u, row in self._out.items() for v in row)

    def __len__(self) -> int:
        return sum(map(len, self._out.values()))


class Network(Frozen):
    """Atom labels on ordered point pairs, at most one label per pair.

    Both representation pipelines end in a network: the labelling
    system's labels are one, and the trail pipeline's pair stage,
    :func:`warel.reduct.build_pair_structure`, returns one.  The
    labelled pairs form the unit, and an element x is represented by
    the pairs whose label lies below x.  The rows ``(out, inn)``, with
    ``out[u][v] = inn[v][u]`` the label of (u, v), one row per point
    with a pair leaving (``out``) or entering it (``inn``), are the one
    copy of the labels; ``label`` is a read-only view of them, keyed by
    pair, that copies nothing.  The field, ``facts`` and ``_walk`` are
    read off the rows once and cached.  ``facts`` is shared by the
    composition checks and by :func:`image_atom_structure`.
    """

    def __init__(self, algebra: AtomStructure, out: Successors, inn: Successors) -> None:
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rows", (out, inn))

    @property
    def label(self) -> LabelView:
        return LabelView(self.rows[0])

    @cached_property
    def field(self) -> frozenset[int]:
        out, inn = self.rows
        return frozenset(out.keys() | inn.keys())

    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], list[set[Optional[int]]], tuple[int, ...]]:
        """``(sizes, reverse, loops)``, from one walk over the rows:
        ``sizes[a]`` pairs and ``loops[a]`` loops carry atom a, and
        ``reverse[a]`` holds the labels of the reverses of a's pairs,
        read from ``inn[u]``, with None for an unlabelled reverse."""
        out, inn = self.rows
        n = self.algebra.atom_count
        sizes, loops = [0] * n, [0] * n
        reverse: list[set[Optional[int]]] = [set() for _ in range(n)]
        empty: dict[int, int] = {}
        for u, row in out.items():
            get = inn.get(u, empty).get
            for v, a in row.items():
                sizes[a] += 1
                reverse[a].add(get(v))
            a = row.get(u)
            if a is not None:
                loops[a] += 1
        return tuple(sizes), reverse, tuple(loops)

    @property
    def sizes(self) -> tuple[int, ...]:
        """``sizes[a]``: the number of pairs labelled with atom ``a``."""
        return self._walk[0]

    def triangles(self) -> Iterator[Triangle]:
        """Every triangle ``(u, v, w, a, b, c)``: the pairs (u, v),
        (v, w) and (u, w) are labelled a, b and c.

        Pairs (u, v) come in row order and, for each, third points w
        in no set order.  Exact: the walk follows adjacency, w ranging
        over the points common to the rows ``out[u]`` and ``out[v]``.
        """
        out = self.rows[0]
        for (u, v), a in self.label.items():
            su, sv = out[u], out.get(v, {})
            for w in su.keys() & sv.keys():
                yield u, v, w, a, sv[w], su[w]

    @cached_property
    def facts(self) -> frozenset[Triple]:
        """The label triples ``(a, b, c)`` of :meth:`triangles`: exactly
        the atoms a, b, c with f(c) meeting f(a) ; f(b) inside the unit.
        Both pipelines seed this cache instead, by a lemma
        (:func:`warel.reduct.build_pair_structure` from the carrier's
        label matrices, :meth:`warel.labelling.LabellingSystem.network`
        from its repair signatures), so only a network built directly
        walks its triangles for it."""
        return frozenset(t[3:] for t in self.triangles())

    def is_symmetric_reflexive(self) -> bool:
        """Exact: every pair of the unit has its reverse in the unit, and
        every point of the field its loop.  Read off ``_walk``: no reverse
        label is None, so the ``out`` rows' points are the field, and the
        loops, at most one a row, number the rows."""
        _, reverse, loops = self._walk
        return not any(None in rev for rev in reverse) and sum(loops) == len(self.rows[0])

    def identity_is_diagonal(self) -> bool:
        """Exact: the identity element is represented by the loops on
        every point of the field.

        Decided by counting.  Identity-count lemma: the loops with an
        identity label are among the pairs with an identity label, so
        when both number ``len(field)`` every identity-labelled pair is a
        loop, one on each point of the field; conversely, when the image
        is the diagonal, both sets are that diagonal.  Both are counted
        off ``_walk``'s ``sizes`` and ``loops``."""
        ident = list(iter_bits(self.algebra.identity))
        sizes, _, loops = self._walk
        return sum(sizes[a] for a in ident) == sum(loops[a] for a in ident) == len(self.field)

    def converse_is_exact(self) -> bool:
        """Per atom, and so for every element since atom images are
        disjoint: the image of a~ is the inverse of the image of a.
        Decided on ``_walk``: every labelled (u, v), label a, has (v, u)
        labelled a~, that is ``reverse[a] <= {a~}``, so the image of a~
        contains the inverse of a's.  The reverse inclusion then needs
        a~~ = a for every atom a whose converse a~ labels some pair; that
        is checked last, since an ``AtomStructure`` built directly need
        not have an involutive converse."""
        conv = self.algebra.converse
        sizes, reverse, _ = self._walk
        if not all(rev <= {conv[a]} for a, rev in enumerate(reverse)):
            return False
        return all(conv[b] == a for a, b in enumerate(conv) if sizes[b])

    def upper_violation(self) -> Optional[tuple[int, int, int]]:
        """The triangle ``(u, v, w)`` whose labels break ``c <= a ; b``
        with (u, v) the first such pair in row order and w the least
        such third point; None when none does.  Exact over every
        triangle: decided on ``facts``, walking the triangles again only
        to name the witness."""
        comp = self.algebra.comp_atoms
        if all((1 << c) & comp[a][b] for a, b, c in self.facts):
            return None
        bad = ((u, v, w) for u, v, w, a, b, c in self.triangles() if not (1 << c) & comp[a][b])
        (u, v), first = next(groupby(bad, key=lambda t: t[:2]))
        return u, v, min(w for *_, w in first)

    def unwitnessed(self, u: int, v: int) -> list[tuple[int, int]]:
        """The factor pairs (b, b') of the label of (u, v), in order, with
        no w labelling (u, w) b and (w, v) b': one walk over the shorter of
        ``out[u]`` and ``inn[v]``, stopped once every pair has a witness."""
        out, inn = self.rows
        row, col = out[u], inn[v]
        fps = self.algebra.factor_pairs[row[v]]
        todo = set(fps)
        # a w off the other row pairs a label with None, never a factor pair
        if len(row) <= len(col):
            for w, b in row.items():
                todo.discard((b, col.get(w)))
                if not todo:
                    return []
        else:
            for w, b2 in col.items():
                todo.discard((row.get(w), b2))
                if not todo:
                    return []
        return [fp for fp in fps if fp in todo]

    def lower_scan(
        self, age: Sequence[int], bound: int
    ) -> tuple[int, int, Optional[tuple[int, int, int, int, int]]]:
        """Composition lower containment, staged: each labelled pair
        (u, v) with both ``age[u]`` and ``age[v]`` below ``bound``,
        label c, needs for every factor pair (b, b') of c a point w with
        (u, w) labelled b and (w, v) labelled b'; the other labelled
        pairs are excluded and counted.  Both pipelines stage the check
        this way: the labelling system by the stage a point was created
        at, the trail universe by a point's trail length.  The pairs are
        read off the rows of the points below the bound and come in
        increasing order, each decided by one :meth:`unwitnessed` walk.
        Returns ``(checked, excluded, first missing)``, the last as
        ``(u, c, v, b, b')`` with (b, b') the first factor pair left
        without a witness, or None; on a miss ``excluded`` counts the
        excluded pairs below it, from its rank among the labelled
        pairs."""
        checked = 0
        pairs = [(u, v) for u, row in self.rows[0].items() if age[u] < bound for v in row if age[v] < bound]
        for u, v in sorted(pairs):
            checked += 1
            missing = self.unwitnessed(u, v)
            if missing:
                below = sum(1 for p in self.label if p < (u, v))
                return checked, below - (checked - 1), (u, self.label[(u, v)], v, *missing[0])
        return checked, sum(self.sizes) - checked, None


def image_atom_structure(net: Network) -> AtomStructure:
    """Rebuild an atom structure from a network's atom images.

    Identity atoms are those whose images sit on the diagonal, the
    converse of a is the atom whose image is the inverse of a's, and
    the composition facts are the network's ``facts``: (a, b, c) is a
    fact when some triangle carries the labels (a, b, c).  Exact, from
    the ``facts`` the network computes once and caches.  When the map is an
    embedding this reproduces the original structure exactly.

    The walk the network shares with its checks gives the rest: an atom
    is an identity atom when all its pairs are loops, and the converse
    of a is b when the reverses of a's pairs are all labelled b and the
    two images have the same size.  Images are disjoint, so then b's
    image is exactly the inverse of a's, and no other atom's is.  An
    empty image maps to the last atom whose image is empty.
    """
    A = net.algebra
    sizes, reverse, loops = net._walk
    n = A.atom_count
    ident = [a for a in range(n) if sizes[a] == loops[a]]
    empty = [a for a in range(n) if not sizes[a]]
    conv = {}
    for a in range(n):
        if not sizes[a]:
            conv[a] = empty[-1]
            continue
        rev = reverse[a]
        b = next(iter(rev)) if len(rev) == 1 else None
        if b is None or sizes[b] != sizes[a]:
            raise ValueError(f"converse image of atom {a} is not an atom image")
        conv[a] = b
    return validate_atom_structure(n, ident, conv, net.facts, names=A.names or None)
