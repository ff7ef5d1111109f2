import pytest

from warel.core import validate_atom_structure
from warel.enumerate import summarize
from warel.relset import Universe, atom_structure_of_relativization
from warel.suitable import build_suitable


@pytest.fixture(scope="session")
def a1():
    """One identity atom."""
    return validate_atom_structure(1, [0], {}, [(0, 0, 0)], names=["e"])


@pytest.fixture(scope="session")
def a2():
    """Identity e plus a symmetric diversity atom d with d;d = 1."""
    return validate_atom_structure(
        2, [0], {}, [(1, 1, 0), (1, 1, 1)], auto_close=True, names=["e", "d"]
    )


@pytest.fixture(scope="session")
def two_identities():
    """Two disjoint identity atoms and a symmetric d hanging off the first."""
    return validate_atom_structure(
        3,
        [0, 1],
        {},
        [(2, 2, 0), (2, 0, 2), (0, 2, 2), (0, 0, 0), (1, 1, 1)],
        names=["e1", "e2", "d"],
    )


@pytest.fixture(scope="session")
def pentagon():
    """Identity e and a converse pair r, s with r;r = r (dense order)."""
    return validate_atom_structure(
        3,
        [0],
        {1: 2},
        [(1, 1, 1), (1, 2, 0), (1, 0, 1)],
        auto_close=True,
        names=["e", "r", "s"],
    )


@pytest.fixture(scope="session")
def census():
    """The 17 WA classes of the 3-atom mod-iso census, in enumeration order."""
    return summarize(3, mod_iso=True)[1]


def _group_algebra(n, add):
    """The complex algebra of a group on range(n) with identity 0, by atoms."""
    inverse = {x: next(y for y in range(n) if add(x, y) == 0) for x in range(n)}
    return validate_atom_structure(n, [0], inverse, [(x, y, add(x, y)) for x in range(n) for y in range(n)])


@pytest.fixture(scope="session")
def past_raw():
    """WA structures of four and five atoms, past the raw structures of
    one to three atoms that the reference scans walk: the cyclic groups
    of order 4 and 5, the Klein group, and the full relation algebra on
    two points."""
    return (
        _group_algebra(4, lambda x, y: (x + y) % 4),
        _group_algebra(5, lambda x, y: (x + y) % 5),
        _group_algebra(4, lambda x, y: x ^ y),
        atom_structure_of_relativization(Universe(2), frozenset((u, v) for u in range(2) for v in range(2)))[0],
    )


@pytest.fixture(scope="session")
def s2(a2):
    """The suitable structure built from a2."""
    return build_suitable(a2)
