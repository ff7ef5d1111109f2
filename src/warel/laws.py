"""Elementary-law test suite for weakly associative algebras.

Thirty-three consequences of the defining axioms, expected to pass on any
structure whose complex algebra classifies as WA; a failure indicates a
non-WA input or an implementation bug.  Each witness is the first failing
assignment: variables in name order, values in ascending mask order.

Twenty-eight laws are rows, decided by ``core.check_equation``:

- Atom-decided rows (unguarded, additive lhs, monotone rhs, additive for
  '='): element variables range over 0 and the atoms, subidentity ones
  over 0 and the identity atoms.  Lemma: every ``AtomStructure`` lifts
  ``compose`` and ``conv_el`` from atoms, so the lhs preserves joins in
  each variable and the rhs is monotone.  A failure where a variable is a
  join of atoms is a failure where it is one of them, a smaller mask, so
  the first failure over all elements has each value 0 or an atom.
- The four single-variable domain and range rows put x under dom, rng or
  a complement: x ranges over all elements, u over all subidentities.
- range-meets-domain and subidentity-forces-domain range over atoms.

Restated rows keep their formula's failing set on every lifted structure.
"x <= y implies f(x) <= f(y)" is f(x) <= f(x+y), and z;(x+y) = z;x + z;y
keeps its <= half: ``compose`` and ``conv_el`` are joins, so all of these
hold.  Both right-hand sides of peirce-absorption lie below x;y.z, so it
fails where x;y.z is not below their meet.  p = q, r = s is one equation,
(p ^ q) + (r ^ s) = 0 with ^ symmetric difference.

Five laws keep a predicate: atomhood is no equation, complete additivity
ranges over sets of atoms, and the cycle law compares six facts.  Above
``core.ELEMENTS_GUARD`` (10) atoms the suite raises ``GuardExceeded``
before any law runs, since the element-ranged rows and both
complete-additivity predicates walk all 2**n elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from operator import or_
from typing import Callable, NamedTuple

from .core import AtomStructure, CheckResult, Const, Dom, Rng, Term, Var, check_equation
from .core import Witness, guard_element_range, iter_bits, peirce_orbit


@dataclass(frozen=True)
class Law:
    name: str
    formula: str
    scope: str  # 'elements' | 'atoms' | 'subsets'
    check: Callable[[AtomStructure], Witness]


ZERO, ONE, ID = Const("0"), Const("1"), Const("1'")


class Row(NamedTuple):
    """"guard != 0 implies lhs relation rhs"; unlisted variables range over all elements."""

    lhs: Term
    relation: str
    rhs: Term
    ranges: tuple[tuple[str, str], ...] = ()
    guard: Term = ONE

    def __call__(self, A: AtomStructure) -> Witness:
        return check_equation(A, self.lhs, self.rhs, self.relation, dict(self.ranges), self.guard)


x, y, z, u, v = map(Var, "xyzuv")
SUB = (("u", "subidentities"), ("v", "subidentities"))


def _all_equal(*pairs: tuple[Term, Term]) -> Term:
    """0 exactly where p = q for every pair (p, q)."""
    return reduce(or_, ((p & -q) | (-p & q) for p, q in pairs))


def _joined(f: Callable[[int], int], mask: int) -> bool:
    """Whether ``f(mask)`` is the join of ``f`` over the atoms of mask."""
    return f(mask) == reduce(or_, (f(1 << a) for a in iter_bits(mask)), 0)


def _converse_completely_additive(A: AtomStructure) -> Witness:
    return next(({"X": m} for m in A.elements() if not _joined(A.conv_el, m)), None)


def _composition_completely_additive(A: AtomStructure) -> Witness:
    # z over atoms: both sides are additive in z, so atoms decide it.
    cases = ((a, m) for a in range(A.atom_count) for m in A.elements())
    return next(({"z": 1 << a, "X": m} for a, m in cases if not _joined(partial(A.compose, 1 << a), m)), None)


def _atom_converse_atom(A: AtomStructure) -> Witness:
    return next(({"x": 1 << a} for a in range(A.atom_count) if A.conv_el(1 << a).bit_count() != 1), None)


def _cycle_law(A: AtomStructure) -> Witness:
    # z <= x;y is the fact (x, y, z), and its six rotations are its orbit.
    triples = product(range(A.atom_count), repeat=3)
    mixed = (t for t in triples if len({r in A.cycles for r in peirce_orbit(A.converse, t)}) > 1)
    return next(({"x": 1 << a, "y": 1 << b, "z": 1 << c} for a, b, c in mixed), None)


def _atom_domain_range_atoms(A: AtomStructure) -> Witness:
    domains_ranges = enumerate(zip(A.atom_domains, A.atom_ranges))
    return next(({"x": 1 << a} for a, (d, r) in domains_ranges if not d.bit_count() == r.bit_count() == 1), None)


LAWS: tuple[Law, ...] = (
    Law("converse-identity-fixed", "1'~ = 1'", "elements", Row(~ID, "=", ID)),
    Law("converse-top-fixed", "1~ = 1", "elements", Row(~ONE, "=", ONE)),
    Law("converse-zero-fixed", "0~ = 0", "elements", Row(~ZERO, "=", ZERO)),
    Law("converse-monotone", "x <= y implies x~ <= y~", "elements", Row(~x, "<=", ~(x | y))),
    Law("composition-monotone-left", "x <= y implies x;z <= y;z", "elements", Row(x * z, "<=", (x | y) * z)),
    Law("composition-additive-right", "z;(x+y) = z;x + z;y", "elements", Row(z * (x | y), "<=", z * x | z * y)),
    Law("composition-monotone-right", "x <= y implies z;x <= z;y", "elements", Row(z * x, "<=", z * (x | y))),
    Law("zero-right-annihilates", "x;0 = 0", "elements", Row(x * ZERO, "=", ZERO)),
    Law("zero-left-annihilates", "0;x = 0", "elements", Row(ZERO * x, "=", ZERO)),
    Law("identity-left-neutral", "1';x = x", "elements", Row(ID * x, "=", x)),
    Law("peirce-absorption", "x;y.z = x;(y.x~;z).z = (x.z;y~);y.z", "elements",
        Row(x * y & z, "<=", x * (y & ~x * z) & (x & z * ~y) * y & z)),
    Law("peirce-left-bound", "x;y.z <= x;(y.x~;z)", "elements", Row(x * y & z, "<=", x * (y & ~x * z))),
    Law("peirce-right-bound", "y;x.z <= (y.z;x~);x", "elements", Row(y * x & z, "<=", (y & z * ~x) * x)),
    Law("cycle-shift-left", "x;y.z != 0 implies y.x~;z != 0", "elements", Row(x * y & z, "!=0", y & ~x * z)),
    Law("cycle-shift-right", "y;x.z != 0 implies y.z;x~ != 0", "elements", Row(y * x & z, "!=0", y & z * ~x)),
    Law("subidentity-meet-is-compose", "u,v <= 1' implies u.v = u;v", "elements", Row(u & v, "=", u * v, SUB)),
    Law("subidentity-below-converse", "u <= 1' implies u <= u~", "elements", Row(u, "<=", ~u, SUB)),
    Law("subidentity-self-converse", "u <= 1' implies u~ = u", "elements", Row(~u, "=", u, SUB)),
    Law("subidentity-compose-meet", "u <= 1' implies u;x = x.u;1", "elements", Row(u * x, "=", x & u * ONE, SUB)),
    Law("converse-completely-additive", "(sum X)~ = sum x~", "subsets", _converse_completely_additive),
    Law("composition-completely-additive", "z;(sum X) = sum z;x", "subsets", _composition_completely_additive),
    Law("atom-converse-atom", "x atom implies x~ atom", "atoms", _atom_converse_atom),
    Law("cycle-law", "six rotations of z <= x;y agree on atoms", "atoms", _cycle_law),
    Law("domain-range-definitions", "dom x = x;x~.1', rng x = x~;x.1'", "elements",
        Row(_all_equal((Dom(x), x * ~x & ID), (Rng(x), ~x * x & ID)), "=", ZERO)),
    Law("domain-range-converse-swap", "dom x~ = rng x, rng x~ = dom x", "elements",
        Row(_all_equal((Dom(~x), Rng(x)), (Rng(~x), Dom(x))), "=", ZERO)),
    Law("domain-range-absorption", "x = dom x;x = x;rng x", "elements",
        Row(_all_equal((Dom(x) * x, x), (x * Rng(x), x)), "=", ZERO)),
    Law("subidentity-own-domain", "u <= 1' implies dom u = rng u = u", "elements",
        Row(_all_equal((Dom(u), u), (Rng(u), u)), "=", ZERO, SUB)),
    Law("subidentity-left-associates", "u <= 1' implies (u;x);y = u;(x;y)", "elements",
        Row((u * x) * y, "=", u * (x * y), SUB)),
    Law("subidentity-middle-associates", "u <= 1' implies (x;u);y <= x;(u;y)", "elements",
        Row((x * u) * y, "<=", x * (u * y), SUB)),
    Law("subidentity-merge", "u,v <= 1' implies (x;u);(v;y) <= x;((u.v);y)", "elements",
        Row((x * u) * (v * y), "<=", x * ((u & v) * y), SUB)),
    Law("atom-domain-range-atoms", "x atom implies dom x, rng x atoms", "atoms", _atom_domain_range_atoms),
    Law("range-meets-domain", "atoms, x;y != 0 implies rng x = dom y", "atoms",
        Row(Rng(x), "=", Dom(y), (("x", "atoms"), ("y", "atoms")), guard=x * y)),
    Law("subidentity-forces-domain", "u,x atoms, u <= 1', u;x != 0 implies u = dom x", "atoms",
        Row(u, "=", Dom(x), (("u", "identity-atoms"), ("x", "atoms")), guard=u * x)),
)


def elementary_law_suite(A: AtomStructure) -> tuple[CheckResult, ...]:
    """Run every law.  The suite is claimed for WA inputs only; it runs
    on any structure, and ``check --laws`` refuses a non-WA input with a
    ``laws.precondition-wa`` line before calling it."""
    guard_element_range(A)
    witnesses = [(law.name, law.check(A)) for law in LAWS]
    return tuple(CheckResult(name, w is None, str(w or "")) for name, w in witnesses)
