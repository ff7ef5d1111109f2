"""Exhaustive and sampled generation of atom structures.

Structures are generated in a fixed labelling scheme: atoms are
a0..a(n-1) with the identity atoms first, the converse involution only
moves non-identity atoms, and the fact set is a union of orbits under
the six cycle transforms (so every emitted structure validates).  No
isomorphism reduction is applied by default; an optional post-pass
keeps one representative per atom-relabelling class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional

from .core import AtomStructure, classify, peirce_orbit, validate_atom_structure

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
    """All validated structures with n atoms under the fixed labelling."""
    if n < 1:
        raise ValueError("atom_count must be at least 1")
    if n > ATOM_GUARD:
        raise ValueError(f"exhaustive enumeration capped at {ATOM_GUARD} atoms")
    emitted: set[tuple] = set()
    for ident_count in range(n + 1):
        ident = tuple(range(ident_count))
        movable = tuple(range(ident_count, n))
        for inv in involutions(movable):
            conv = tuple(inv.get(a, a) for a in range(n))
            orbits = cycle_orbits(n, conv)
            for mask in range(1 << len(orbits)):
                facts: set = set()
                for i, orb in enumerate(orbits):
                    if (mask >> i) & 1:
                        facts |= orb
                A = validate_atom_structure(n, ident, conv, facts)
                if mod_iso:
                    key = canonical_key(A)
                    if key in emitted:
                        continue
                    emitted.add(key)
                yield A


def canonical_key(A: AtomStructure) -> tuple:
    """Minimum presentation over atom relabellings."""
    n = A.atom_count
    best = None
    for perm in permutations(range(n)):
        ident = tuple(sorted(perm[a] for a in range(n) if (1 << a) & A.identity))
        if ident != tuple(range(len(ident))):
            continue
        conv = [0] * n
        for a in range(n):
            conv[perm[a]] = perm[A.converse[a]]
        facts = tuple(sorted((perm[x], perm[y], perm[z]) for x, y, z in A.cycles))
        key = (ident, tuple(conv), facts)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


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
