import gc
import random
import tracemalloc
from collections import deque
from itertools import dropwhile, islice, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_enumerate_reference import canonical_key, sample_structure
from warel.core import AtomStructure, GuardExceeded, classify
from warel.enumerate import (
    EnumerationSummary,
    enumerate_structures,
    involutions,
    summarize,
)


def test_involution_counts():
    assert len(list(involutions(()))) == 1
    assert len(list(involutions((0,)))) == 1
    assert len(list(involutions((0, 1)))) == 2
    assert len(list(involutions((0, 1, 2)))) == 4
    assert len(list(involutions((0, 1, 2, 3)))) == 10


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_undercut_test_is_min_below_mask(data):
    """The mod-iso walk's test on its packed images: with one (k + 1)-bit
    field per image, G the top (guard) bit of each field and ONES the low
    bit, ``((cur | G) - mask * ONES) & G != G`` iff ``min(images) < mask``."""
    k = data.draw(st.integers(1, 20))
    images = data.draw(st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=24))
    mask = data.draw(st.integers(0, 2**k - 1))
    width = k + 1
    ones = sum(1 << width * j for j in range(len(images)))
    guards = ones << width - 1
    cur = sum(image << width * j for j, image in enumerate(images))
    assert (((cur | guards) - mask * ones) & guards != guards) == (min(images) < mask)


def test_single_atom_enumeration():
    structures = list(enumerate_structures(1))
    assert len(structures) == 4
    ra = [A for A in structures if classify(A).is_ra]
    assert len(ra) == 1
    assert ra[0].identity == 1 and ra[0].cycles == frozenset({(0, 0, 0)})


def test_no_duplicates_and_all_valid():
    for n in (1, 2, 3):
        seen = set()
        for A in enumerate_structures(n):
            key = (A.identity, A.converse, A.cycles)
            assert key not in seen
            seen.add(key)


def test_counts_are_consistent():
    s2, wa2 = summarize(2)
    assert s2.total == 52
    assert s2.wa == len(wa2)
    assert s2.ra <= s2.sa <= s2.wa
    s3, wa3 = summarize(3)
    assert s3.ra <= s3.sa <= s3.wa
    assert s3.wa_not_sa >= 0
    assert s3 == EnumerationSummary(3, 4608, 25, 20, 20, 5, 0)
    iso3, wa_iso3 = summarize(3, mod_iso=True)
    assert iso3 == EnumerationSummary(3, 1696, 17, 13, 13, 4, 0)
    assert len(wa_iso3) == 17


def test_mod_iso_reduces():
    plain = list(enumerate_structures(2))
    reduced = list(enumerate_structures(2, mod_iso=True))
    assert len(reduced) < len(plain)
    keys = {canonical_key(A) for A in plain}
    assert len(reduced) == len(keys)


def test_mod_iso_memory_does_not_grow_with_classes_emitted():
    """Mod-iso generation keeps no state per emitted class: taking
    2,000 more 4-atom structures from a live generator leaves the traced
    memory within 10 KB of where it was."""
    structures = enumerate_structures(4, mod_iso=True)
    tracemalloc.start()
    try:
        deque(islice(structures, 2000), maxlen=0)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        deque(islice(structures, 2000), maxlen=0)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 10_000, (before, after)


@pytest.mark.parametrize("mod_iso", [False, True], ids=["raw", "mod-iso"])
def test_seeded_comp_atoms_match_the_table_built_from_cycles(mod_iso):
    """Every emitted structure arrives with ``comp_atoms`` already set,
    updated by XOR along the mask walk, and it is the table that
    ``AtomStructure`` builds from the same cycles: every structure at
    1-3 atoms and the first 20,000 at 4."""
    walks = [enumerate_structures(n, mod_iso=mod_iso) for n in (1, 2, 3)]
    walks.append(islice(enumerate_structures(4, mod_iso=mod_iso), 20_000))
    for walk in walks:
        for A in walk:
            assert "comp_atoms" in vars(A)
            rebuilt = AtomStructure(A.atom_count, A.identity, A.converse, A.cycles)
            assert A.comp_atoms == rebuilt.comp_atoms, (A.identity, A.converse, sorted(A.cycles))


@pytest.mark.parametrize("mod_iso", [False, True], ids=["raw", "mod-iso"])
def test_identity_law_walk_leaves_out_exactly_the_ra6_failures(mod_iso):
    """With ``identity_law`` the walk yields, item by item, None where
    ``classify`` finds ra6 failing, and the default walk's structure with
    its ``comp_atoms`` seeded elsewhere: every item at 1-3 atoms and the
    first 20,000 at 4.  Those 20,000 all lack an identity atom, so
    mod-iso also checks the 20,000 items after the last such class."""

    def paired(n):
        return zip_longest(enumerate_structures(n, mod_iso), enumerate_structures(n, mod_iso, identity_law=True))

    walks = [paired(n) for n in (1, 2, 3)]
    four = paired(4)
    walks.append(islice(four, 20_000))
    if mod_iso:
        walks.append(islice(dropwhile(lambda pair: not pair[0].identity, four), 20_000))
    passed = 0
    for walk in walks:
        for A, B in walk:
            failures = classify(A).failures
            if failures and failures[0][0] == "ra6":
                assert B is None, (A.identity, A.converse, sorted(A.cycles))
            else:
                assert B == A and "comp_atoms" in vars(B) and B.comp_atoms == A.comp_atoms
                passed += 1
    assert passed > 0


def test_guard():
    with pytest.raises(GuardExceeded):
        list(enumerate_structures(5))
    for n in (0, -1):
        with pytest.raises(ValueError):
            list(enumerate_structures(n))


def test_sampler_produces_valid(two_identities):
    rng = random.Random(3)
    for _ in range(50):
        A = sample_structure(4, rng)
        assert A.atom_count == 4
        for a in range(4):
            assert A.converse[A.converse[a]] == a
