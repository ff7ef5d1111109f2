import random

import pytest

from test_enumerate_reference import canonical_key
from warel.core import GuardExceeded, classify
from warel.enumerate import (
    EnumerationSummary,
    enumerate_structures,
    involutions,
    sample_structure,
    summarize,
)


def test_involution_counts():
    assert len(list(involutions(()))) == 1
    assert len(list(involutions((0,)))) == 1
    assert len(list(involutions((0, 1)))) == 2
    assert len(list(involutions((0, 1, 2)))) == 4
    assert len(list(involutions((0, 1, 2, 3)))) == 10


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
    assert s3 == EnumerationSummary(3, 4608, 4608, 25, 20, 20, 5, 0)
    iso3, wa_iso3 = summarize(3, mod_iso=True)
    assert iso3 == EnumerationSummary(3, 1696, 1696, 17, 13, 13, 4, 0)
    assert len(wa_iso3) == 17


def test_mod_iso_reduces():
    plain = list(enumerate_structures(2))
    reduced = list(enumerate_structures(2, mod_iso=True))
    assert len(reduced) < len(plain)
    keys = {canonical_key(A) for A in plain}
    assert len(reduced) == len(keys)


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
