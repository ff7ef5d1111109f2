"""Exhaustive and sampled generation of atom structures.

Structures are generated in a fixed labelling scheme: atoms are
a0..a(n-1) with the identity atoms first, the converse involution only
moves non-identity atoms, and the fact set is a union of orbits under
the six cycle transforms.  For one converse, bit i of an *orbit mask*
selects orbit i of ``cycle_orbits``; masks and fact sets correspond one
to one.  The exhaustive generator works on masks, by four lemmas:

- Validation is per orbit.  ``validate_atom_structure`` checks that
  every atom is in range, that the converse is an involution fixing the
  identity atoms, and that the facts are closed under the transforms.
  Only range and closure read the facts; a union of in-range,
  transform-closed orbits is in range and transform-closed.  So each
  orbit of each converse is validated once, and every mask over that
  converse yields a valid structure without another check.
- The orderly lemma: isomorph reduction is orderly (McKay, *Isomorph-free
  exhaustive generation*, J. Algorithms 26 (1998)): each relabelling
  class is decided where it first appears, with nothing stored per
  class.  A relabelling p fixing the identity block setwise maps a
  structure over ``conv`` to one over ``p . conv . p^-1``.  These p act on
  the movable atoms as their full symmetric group, where two involutions
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
- The identity-law lemma.  ra6, x;1' = x, is the first law ``classify``
  evaluates, and its failure refutes WA, SA and RA together.  Over atoms
  x;1' is the set of z with a fact (x, e, z), e an identity atom, so ra6
  holds iff for every atom x that set is exactly {x}.  Call ``bad`` the
  orbits that hold a fact (x, e, z) with e an identity atom and z != x,
  and ``needs[x]`` those that hold a fact (x, e, x) with e an identity
  atom.  Then ra6 holds on a mask iff ``mask & bad`` is 0 and
  ``mask & needs[x]`` is not 0 for every atom x.  Proof: a mask's fact
  set is the union of the orbits it selects, and each fact lies in
  exactly one orbit, so a fact is in the set iff the mask selects its
  orbit.  If the mask selects an orbit of ``bad``, its fact (x, e, z)
  puts z != x in x;1', and ra6 fails at x.  If it selects no orbit of
  ``needs[x]``, no fact (x, e, x) is in the set, so x is not in x;1'
  and ra6 fails at x.  Otherwise, for each x, a selected orbit of
  ``needs[x]`` puts x in x;1', and any fact (x, e, z) of the set with
  z != x would lie in a selected orbit of ``bad``, of which there is
  none; so x;1' = {x}.  With no identity atom every ``needs[x]`` is 0,
  so no mask passes, as x;0 = 0 != x.  Both masks are built once per
  walked converse from its orbits, and the test reads no fact.

No isomorphism reduction is applied by default; with ``mod_iso`` the
first structure of each relabelling class is kept.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from operator import xor
from typing import Iterator, NamedTuple, Optional

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


def enumerate_structures(
    n: int, mod_iso: bool = False, *, identity_law: bool = False
) -> Iterator[Optional[AtomStructure]]:
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
    the converse is smaller.  By the module's orderly lemma that keeps
    exactly the first structure of each relabelling class, so the
    output is the raw sequence with later class members left out.  The
    images of the current mask are kept in one int ``cur``, field j of
    k + 1 bits holding the image under stabilizer element j, for k
    orbits, and updated by the flip lemma with one XOR per mask; the
    stabilizer holds the identity, so there is at least one field.  The
    test reads every field at once.  With G the top (guard) bit of each
    field and ONES the low bit, ``(cur | G) - mask * ONES`` subtracts
    mask from 2**k + image in each field; since mask < 2**k no field
    borrows from the next, and a field loses its guard bit exactly when
    its image is below mask.  So ``... & G != G`` is ``min(images) <
    mask``: this is the packed orderly test.  No state is kept per
    emitted structure.

    With ``identity_law`` each emitted mask is also tested for ra6 by
    the module's identity-law lemma, on ``bad`` and ``needs`` built
    once per walked converse, and a mask that fails it yields None in
    place of its structure, with no fact set built.  The items come in
    the same order and number as without it, and the structures among
    them are exactly those on which ``classify`` gets past ra6.  Raises
    ``GuardExceeded`` above ``ATOM_GUARD`` atoms.
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
                # Field j of pre[t]: the image of orbits 0..t under stabilizer
                # element j, one (k + 1)-bit field per element, top bit guard.
                width = len(orbits) + 1
                ones = sum(1 << width * j for j in range(len(images)))
                guards = ones << width - 1
                pre = [
                    sum(image << width * j for j, image in enumerate(col))
                    for col in zip(*(accumulate(img, xor) for img in images))
                ]
                cur = 0
            if identity_law:
                # The identity-law lemma's masks; the identity atoms are 0..ident_count - 1.
                bad = 0
                needs = [0] * n
                for i, orb in enumerate(orbits):
                    for x, e, z in orb:
                        if e < ident_count:
                            if z == x:
                                needs[x] |= 1 << i
                            else:
                                bad |= 1 << i
            # The top orbit first: a frozenset's iteration order depends on
            # the order its facts arrive, so this fixes one for every fact set.
            top_down = [(1 << i, orbits[i]) for i in reversed(range(len(orbits)))]
            table = 0
            for mask in range(1 << len(orbits)):
                if mask:
                    t = (mask & -mask).bit_length() - 1
                    table ^= tables[t]
                    if mod_iso:
                        cur ^= pre[t]
                        if ((cur | guards) - mask * ones) & guards != guards:
                            continue
                if identity_law and (mask & bad or not all(mask & need for need in needs)):
                    yield None
                    continue
                cycles = frozenset().union(*(orb for bit, orb in top_down if mask & bit))
                A = AtomStructure(n, identity, converse, cycles)
                packed = table.to_bytes(n * n, "little")
                # cached_property reads the instance dict first.
                vars(A)["comp_atoms"] = tuple(tuple(packed[i : i + n]) for i in range(0, n * n, n))
                yield A


class EnumerationSummary(NamedTuple):
    atoms: int
    total: int
    wa: int
    sa: int
    ra: int
    wa_not_sa: int
    sa_not_ra: int


def summarize(n: int, mod_iso: bool = False) -> tuple[EnumerationSummary, list[AtomStructure]]:
    """Counts plus the list of WA structures found, in walk order.

    ``total`` counts every structure of ``enumerate_structures(n,
    mod_iso)``, but only those that pass ra6 are built and classified:
    the walk runs with ``identity_law``, which yields None for each
    structure on which ra6 fails.  The counts are exact, because ra6 is
    the first law ``classify`` evaluates and its failure makes all three
    verdicts no, so a structure left out adds to none of the other
    counts; and by the module's identity-law lemma the structures left
    out are exactly those.  At four atoms mod-iso that classifies 373
    of the 791,592 classes.
    """
    total = wa = sa = ra = wa_not_sa = sa_not_ra = 0
    wa_structures = []
    for A in enumerate_structures(n, mod_iso=mod_iso, identity_law=True):
        total += 1
        if A is None:
            continue
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
