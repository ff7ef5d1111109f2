"""Exhaustive and sampled generation of atom structures.

Structures are generated in a fixed labelling scheme: atoms are
a0..a(n-1) with the identity atoms first, the converse involution only
moves non-identity atoms, and the fact set is a union of orbits under
the six cycle transforms.  For one converse, bit i of an *orbit mask*
selects orbit i of ``cycle_orbits``; masks and fact sets correspond one
to one.  The exhaustive generator works on masks, by three lemmas:

- Validation is per orbit.  ``validate_atom_structure`` checks that
  every atom is in range, that the converse is an involution fixing the
  identity atoms, and that the facts are closed under the transforms.
  Only range and closure read the facts; a union of in-range,
  transform-closed orbits is in range and transform-closed.  So each
  orbit of each converse is validated once, and every mask over that
  converse yields a valid structure without another check.
- Isomorph reduction is orderly (McKay, *Isomorph-free exhaustive
  generation*, J. Algorithms 26 (1998)): each relabelling class is
  decided where it first appears, with nothing stored per class.  A
  relabelling p that fixes the identity block setwise maps a structure
  over ``conv`` to one over ``p . conv . p^-1``.  These p act on the
  movable atoms as their full symmetric group, where two involutions
  are conjugate exactly when they have the same number of
  transpositions.  So every converse of a conjugacy class carries
  members of every relabelling class met over any of them, and the
  first member of a class lies over the first converse of its
  conjugacy class in ``involutions`` order.  Over that converse the
  members of a class are the images of any one of them under the
  stabilizer, the p with ``p . conv = conv . p``, which permutes the
  orbits of ``conv``.  As masks name fact sets one to one, the first
  member is the mask that no stabilizer image undercuts.
- The flip lemma.  Masks are walked counting up, and going from
  mask - 1 to mask flips exactly orbits 0..t, where t is the index of
  mask's lowest set bit.  A stabilizer image is a bit permutation of
  the mask, so it commutes with XOR.  Orbits are disjoint sets of
  facts, so each bit (x, y, z) of the composition table belongs to
  exactly one orbit, and the table of a mask is the XOR of its orbits'
  tables.  So every image of mask, and its table, is the value for
  mask - 1 XORed with the value for orbits 0..t, a prefix built once
  per walked converse: one XOR per mask and value, and nothing rebuilt
  per mask.  This is the Gray-code idea of updating a tuple instead of
  rebuilding it (Knuth, *TAOCP* 4A, 7.2.1.1), on a counting walk.

No isomorphism reduction is applied by default; with ``mod_iso`` the
first structure of each relabelling class is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations, product
from operator import xor
from typing import Iterator

from .core import (
    AtomStructure,
    GuardExceeded,
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

    The composition table is kept as one int along the walk, one byte
    per entry x * n + y (entries are below 2**n <= 16 under
    ``ATOM_GUARD``), and updated by the module's flip lemma with one
    XOR per mask.  An emitted structure gets it unpacked as its cached
    ``comp_atoms``, so nothing rebuilds that table from the cycles.

    With ``mod_iso`` a converse is walked only if it is the first in
    ``involutions`` order with its number of transpositions, and a mask
    over it is emitted only if no image of it under the stabilizer of
    the converse is smaller.  By the module's second lemma that keeps
    exactly the first structure of each relabelling class, so the
    output is the raw sequence with later class members left out.  The
    images of the current mask are kept in a list, one per stabilizer
    element, and updated by the flip lemma; the stabilizer holds the
    identity, so the list is never empty.  No state is kept per emitted
    structure.  Raises ``GuardExceeded`` above ``ATOM_GUARD`` atoms.
    """
    if n < 1:
        raise ValueError("atom_count must be at least 1")
    if n > ATOM_GUARD:
        raise GuardExceeded(f"exhaustive enumeration capped at {ATOM_GUARD} atoms, got {n}")
    for ident_count in range(n + 1):
        ident = tuple(range(ident_count))
        movable = tuple(range(ident_count, n))
        if mod_iso:
            relabellings = [head + tail for head in permutations(ident) for tail in permutations(movable)]
            walked: set[int] = set()
        for inv in involutions(movable):
            if mod_iso:
                # Twice the transposition count names the conjugacy class.
                moved = sum(a != b for a, b in inv.items())
                if moved in walked:
                    continue
                walked.add(moved)
            conv = tuple(inv.get(a, a) for a in range(n))
            checked = [validate_atom_structure(n, ident, inv, orb) for orb in cycle_orbits(n, conv)]
            identity, converse = checked[0].identity, checked[0].converse
            orbits = [B.cycles for B in checked]
            # tables[t]: the composition table of orbits 0..t, one byte per entry x * n + y.
            tables = list(accumulate((sum(1 << 8 * (x * n + y) + z for x, y, z in orb) for orb in orbits), xor))
            if mod_iso:
                index = {t: i for i, orb in enumerate(orbits) for t in orb}
                reps = [next(iter(orb)) for orb in orbits]
                images = {
                    tuple(1 << index[p[x], p[y], p[z]] for x, y, z in reps)
                    for p in relabellings
                    if all(p[conv[a]] == conv[p[a]] for a in range(n))
                }
                # pre[t][j]: the image of orbits 0..t under stabilizer element j.
                pre = list(zip(*(accumulate(img, xor) for img in images)))
                cur = [0] * len(images)
            table = 0
            # The last factor is orbit 0, so the index counts masks up.
            choices = product(*((frozenset(), orb) for orb in reversed(orbits)))
            for mask, parts in enumerate(choices):
                if mask:
                    t = (mask & -mask).bit_length() - 1
                    table ^= tables[t]
                    if mod_iso:
                        cur = list(map(xor, cur, pre[t]))
                        if min(cur) < mask:
                            continue
                A = AtomStructure(n, identity, converse, frozenset().union(*parts))
                packed = table.to_bytes(n * n, "little")
                # cached_property reads the instance dict first.
                vars(A)["comp_atoms"] = tuple(tuple(packed[i : i + n]) for i in range(0, n * n, n))
                yield A


@dataclass(frozen=True)
class EnumerationSummary:
    atoms: int
    total: int
    wa: int
    sa: int
    ra: int
    wa_not_sa: int
    sa_not_ra: int


def summarize(n: int, mod_iso: bool = False) -> tuple[EnumerationSummary, list[AtomStructure]]:
    """Counts plus the list of WA structures found."""
    total = wa = sa = ra = wa_not_sa = sa_not_ra = 0
    wa_structures = []
    for A in enumerate_structures(n, mod_iso=mod_iso):
        total += 1
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
        EnumerationSummary(n, total, wa, sa, ra, wa_not_sa, sa_not_ra),
        wa_structures,
    )
