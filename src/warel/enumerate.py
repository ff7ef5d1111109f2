"""Exhaustive and sampled generation of atom structures.

Structures are generated in a fixed labelling scheme: atoms are
a0..a(n-1) with the identity atoms first, the converse involution only
moves non-identity atoms, and the fact set is a union of orbits under
the six cycle transforms.  For one converse, bit i of an *orbit mask*
selects orbit i of ``cycle_orbits``; masks and fact sets correspond one
to one.  The exhaustive generator works on masks, by two lemmas:

- Validation is per orbit.  ``validate_atom_structure`` checks that
  every atom is in range, that the converse is an involution fixing the
  identity atoms, and that the facts are closed under the transforms.
  Only range and closure read the facts; a union of in-range,
  transform-closed orbits is in range and transform-closed.  So each
  orbit of each converse is validated once, and every mask over that
  converse yields a valid structure without another check.
- Isomorph reduction is per mask.  A relabelling p that fixes the
  identity block setwise maps orbit i of ``conv`` onto an orbit of
  ``conv_p = p . conv . p^-1``, so it maps masks over ``conv`` to masks
  over ``conv_p``.  As masks name fact sets one to one, the least
  ``(identity count, conv_p, image mask)`` over all such p is a complete
  invariant of the relabelling class.

No isomorphism reduction is applied by default; with ``mod_iso`` the
first structure of each relabelling class is kept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .core import (
    AtomStructure,
    GuardExceeded,
    Triple,
    _join_row,
    classify,
    peirce_orbit,
    validate_atom_structure,
)

ATOM_GUARD = 4


def involutions(elements: tuple[int, ...]) -> Iterator[dict[int, int]]:
    """All involutions of the given elements, as sparse maps."""
    if not elements:
        yield {}
        return
    first, rest = elements[0], elements[1:]
    for sub in involutions(rest):
        yield {**sub, first: first}
    for i, partner in enumerate(rest):
        smaller = rest[:i] + rest[i + 1 :]
        for sub in involutions(smaller):
            yield {**sub, first: partner, partner: first}


def cycle_orbits(n: int, conv: tuple[int, ...]) -> list[frozenset]:
    orbits = []
    seen = set()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x, y, z) in seen:
                    continue
                orb = peirce_orbit(conv, (x, y, z))
                seen |= orb
                orbits.append(orb)
    return orbits


def _mask_images(
    conv: tuple[int, ...],
    orbits: list[frozenset],
    relabellings: list[tuple[int, ...]],
    orbit_index: dict[tuple[int, ...], dict[Triple, int]],
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The least ``conv_p`` over ``relabellings`` and, for each p that
    reaches it, the bit of orbit p(orbit i) of ``conv_p`` at index i.
    ``conv_p`` does not depend on the mask, so the least key over all p
    is reached only by these p.  ``orbit_index`` caches each converse's
    triple -> orbit index."""
    n = len(conv)
    least = None
    for p in relabellings:
        conv_p = [0] * n
        for a in range(n):
            conv_p[p[a]] = p[conv[a]]
        conv_p = tuple(conv_p)
        if least is None or conv_p < least:
            least, reaching = conv_p, [p]
        elif conv_p == least:
            reaching.append(p)
    index = orbit_index.get(least)
    if index is None:
        index = {t: i for i, orb in enumerate(cycle_orbits(n, least)) for t in orb}
        orbit_index[least] = index
    images = []
    for p in reaching:
        reps = (next(iter(orb)) for orb in orbits)
        images.append(tuple(1 << index[p[x], p[y], p[z]] for x, y, z in reps))
    return least, images


def enumerate_structures(n: int, mod_iso: bool = False) -> Iterator[AtomStructure]:
    """All valid structures with n atoms under the fixed labelling, per
    identity count, converse (in ``involutions`` order) and increasing
    orbit mask.

    Validation is exact over each orbit of each (identity count,
    converse) pair: ``validate_atom_structure`` runs once per orbit of
    ``cycle_orbits``, not once per mask (68 calls for n = 3, against
    4,608 masks).  That covers every mask, because range, involution and
    identity do not depend on the mask, and a union of transform-closed
    orbits is transform-closed.  Masks are walked one at a time, and a
    fact set is built only for a structure that is emitted.

    With ``mod_iso`` a mask is emitted unless an earlier one has the same
    key, the least ``(identity count, conv_p, image of the mask)`` over
    the relabellings p that fix the identity block setwise.  p maps the
    orbits of ``conv`` onto those of ``conv_p``, and for a fixed converse
    masks and fact sets correspond one to one, so the key is a complete
    invariant of the relabelling class: each class is emitted once, at
    its first structure.  Raises ``GuardExceeded`` above ``ATOM_GUARD``
    atoms.
    """
    if n < 1:
        raise ValueError("atom_count must be at least 1")
    if n > ATOM_GUARD:
        raise GuardExceeded(f"exhaustive enumeration capped at {ATOM_GUARD} atoms, got {n}")
    emitted: set[tuple] = set()
    orbit_index: dict[tuple[int, ...], dict[Triple, int]] = {}
    for ident_count in range(n + 1):
        ident = tuple(range(ident_count))
        movable = tuple(range(ident_count, n))
        relabellings = [
            head + tail
            for head in permutations(ident)
            for tail in permutations(movable)
        ]
        for inv in involutions(movable):
            conv = tuple(inv.get(a, a) for a in range(n))
            checked = [validate_atom_structure(n, ident, conv, orb) for orb in cycle_orbits(n, conv)]
            identity, converse = checked[0].identity, checked[0].converse
            orbits = [B.cycles for B in checked]
            if mod_iso:
                least, images = _mask_images(converse, orbits, relabellings, orbit_index)
            # The last factor is orbit 0, so the index counts masks up.
            choices = product(*((frozenset(), orb) for orb in reversed(orbits)))
            for mask, parts in enumerate(choices):
                if mod_iso:
                    key = (ident_count, least, min(_join_row(img, mask) for img in images))
                    if key in emitted:
                        continue
                    emitted.add(key)
                yield AtomStructure(n, identity, converse, frozenset().union(*parts))


def sample_structure(n: int, rng: random.Random) -> AtomStructure:
    """One random validated structure with n atoms."""
    ident_count = rng.randint(0, n)
    ident = tuple(range(ident_count))
    movable = list(range(ident_count, n))
    rng.shuffle(movable)
    conv = list(range(n))
    while len(movable) >= 2 and rng.random() < 0.5:
        a = movable.pop()
        b = movable.pop()
        conv[a] = b
        conv[b] = a
    orbits = cycle_orbits(n, tuple(conv))
    facts: set = set()
    for orb in orbits:
        if rng.random() < 0.5:
            facts |= orb
    return validate_atom_structure(n, ident, conv, facts)


@dataclass(frozen=True)
class EnumerationSummary:
    atoms: int
    total: int
    valid: int
    wa: int
    sa: int
    ra: int
    wa_not_sa: int
    sa_not_ra: int


def summarize(n: int, mod_iso: bool = False) -> tuple[EnumerationSummary, list[AtomStructure]]:
    """Counts plus the list of WA structures found."""
    total = valid = wa = sa = ra = wa_not_sa = sa_not_ra = 0
    wa_structures = []
    for A in enumerate_structures(n, mod_iso=mod_iso):
        total += 1
        valid += 1
        rep = classify(A)
        if rep.is_wa:
            wa += 1
            wa_structures.append(A)
        if rep.is_sa:
            sa += 1
        if rep.is_ra:
            ra += 1
        if rep.is_wa and not rep.is_sa:
            wa_not_sa += 1
        if rep.is_sa and not rep.is_ra:
            sa_not_ra += 1
    return (
        EnumerationSummary(n, total, valid, wa, sa, ra, wa_not_sa, sa_not_ra),
        wa_structures,
    )
