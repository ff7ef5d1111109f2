"""The orbit-mask generator against the per-structure generator it replaced.

``ref_enumerate`` validates every fact set with ``validate_atom_structure``
and reduces isomorphs with ``canonical_key``, which sorts every fact under
each relabelling that fixes the identity block.  ``enumerate_structures``
must emit the same structures in the same order, in both modes.
``sample_structure`` draws one random validated structure; the other
test modules import it from here.
"""

from __future__ import annotations

import random
from itertools import islice, permutations
from typing import Iterator

import pytest

from warel.core import AtomStructure, validate_atom_structure
from warel.enumerate import cycle_orbits, enumerate_structures, involutions


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


def ref_enumerate(n: int, mod_iso: bool = False) -> Iterator[AtomStructure]:
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


@pytest.mark.parametrize("mod_iso", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_same_structures_in_the_same_order(n, mod_iso):
    assert list(enumerate_structures(n, mod_iso)) == list(ref_enumerate(n, mod_iso))


@pytest.mark.parametrize("mod_iso", [False, True])
def test_same_first_structures_at_four_atoms(mod_iso):
    got = list(islice(enumerate_structures(4, mod_iso), 5000))
    assert len(got) == 5000
    assert got == list(islice(ref_enumerate(4, mod_iso), 5000))


@pytest.mark.parametrize("mod_iso", [False, True])
def test_every_structure_validates_as_itself(mod_iso):
    for A in enumerate_structures(3, mod_iso):
        ident = [a for a in range(A.atom_count) if A.identity >> a & 1]
        assert A == validate_atom_structure(A.atom_count, ident, A.converse, A.cycles)
