"""Elementary-law test suite for weakly associative algebras.

Thirty-three consequences of the defining axioms, expected to pass on any
structure whose complex algebra classifies as WA; a failure indicates a
non-WA input or an implementation bug.  Each witness is the first failing
assignment: variables in name order, values in ascending mask order.

The term language of the rows (:class:`Term`, :func:`check_equation`)
lives here: the suite is its only caller, so only ``check --laws``
compiles it.

Twenty-eight laws are rows, decided by :func:`check_equation`:

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
``ELEMENTS_GUARD`` (10) atoms the suite raises ``GuardExceeded``
before any law runs, since the element-ranged rows and both
complete-additivity predicates walk all 2**n elements.

The memo lemma: ``compose`` and ``conv_el`` are pure functions of the
structure and their argument masks, so a memo of them keyed by the masks
returns on a hit what the call would, and no verdict or witness moves.
The compiled terms and converse-completely-additive read
``AtomStructure._memo``.  Its scope is one structure, not one row, since
the rows share most of their mask pairs; it is never shared across
structures, whose cycles differ.  It is made on first use, lives as long
as the structure and holds only the values computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from operator import or_
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .core import AtomStructure, CheckResult, Frozen, GuardExceeded, Witness, iter_bits, peirce_orbit


class EvalError(ValueError):
    """Raised for unbound variables or malformed terms."""


class Term(Frozen):
    """A term of the complex algebra.  Operators build terms, binding ; before
    . before +: ``p | q`` join, ``p & q`` meet, ``p * q`` composition,
    ``-p`` complement and ``~p`` converse.  Each subclass names its fields
    in ``__slots__``; terms with equal fields are equal."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def __or__(self, other: Term) -> Term:
        return Join(self, other)

    def __and__(self, other: Term) -> Term:
        return Meet(self, other)

    def __mul__(self, other: Term) -> Term:
        return Comp(self, other)

    def __neg__(self) -> Term:
        return Neg(self)

    def __invert__(self) -> Term:
        return Conv(self)


class Var(Term):
    __slots__ = ("name",)


class Const(Term):
    __slots__ = ("symbol",)  # one of '0', '1', "0'", "1'"


class Join(Term):
    __slots__ = ("left", "right")


class Meet(Term):
    __slots__ = ("left", "right")


class Comp(Term):
    __slots__ = ("left", "right")


class Neg(Term):
    __slots__ = ("arg",)


class Conv(Term):
    __slots__ = ("arg",)


class Dom(Term):
    __slots__ = ("arg",)


class Rng(Term):
    __slots__ = ("arg",)


def _compile(A: AtomStructure, t: Term, names: Sequence[str]) -> Callable[[Sequence[int]], int]:
    """t as a function of the values of the variables ``names``, in order.

    Composition and converse are ``A.compose`` and ``A.conv_el``, lifted
    from atoms, read through A's memo (the memo lemma).  Domain and range
    unfold by definition: dom x = x ; x~ . 1' and rng x = x~ ; x . 1'.
    """
    if isinstance(t, Var):
        if t.name not in names:
            raise EvalError(f"unbound variable {t.name!r}")
        i = names.index(t.name)
        return lambda vals: vals[i]
    if isinstance(t, Const):
        consts = {"0": 0, "1": A.full, "1'": A.identity, "0'": A.diversity}
        if t.symbol not in consts:
            raise EvalError(f"unknown constant {t.symbol!r}")
        c = consts[t.symbol]
        return lambda vals: c
    if isinstance(t, (Dom, Rng)):
        a = t.arg
        return _compile(A, (a * ~a if isinstance(t, Dom) else ~a * a) & Const("1'"), names)
    if isinstance(t, (Neg, Conv)):
        f, full, conv = _compile(A, t.arg, names), A.full, A._memo[1]
        if isinstance(t, Neg):
            return lambda vals: full & ~f(vals)
        return lambda vals: conv(f(vals))
    if isinstance(t, (Join, Meet, Comp)):
        left, right = _compile(A, t.left, names), _compile(A, t.right, names)
        if isinstance(t, Join):
            return lambda vals: left(vals) | right(vals)
        if isinstance(t, Meet):
            return lambda vals: left(vals) & right(vals)
        compose = A._memo[0]
        return lambda vals: compose(left(vals), right(vals))
    raise EvalError(f"not a term: {t!r}")


def eval_term(A: AtomStructure, t: Term, env: Mapping[str, int]) -> int:
    """Evaluate a term to an element bitmask."""
    return _compile(A, t, tuple(env))(tuple(env.values()))


def _occurrences(t: Term, above: frozenset[type] = frozenset()) -> Iterator[tuple[str, frozenset[type]]]:
    """Each variable occurrence in t, with the operator classes above it."""
    if isinstance(t, Var):
        yield t.name, above
    elif isinstance(t, (Join, Meet, Comp)):
        yield from _occurrences(t.left, above | {type(t)})
        yield from _occurrences(t.right, above | {type(t)})
    elif isinstance(t, (Neg, Conv, Dom, Rng)):
        yield from _occurrences(t.arg, above | {type(t)})


def free_vars(t: Term) -> tuple[str, ...]:
    return tuple(sorted({name for name, _ in _occurrences(t)}))


def atom_decided(lhs: Term, rhs: Term, relation: str = "=", guard: Term = Const("1")) -> bool:
    """Whether 0 and the atoms decide the law (see :func:`check_equation`):
    its guard has no variable, its lhs is additive (every variable at most
    once, never under a complement, domain or range), and its rhs is
    monotone (no variable under a complement), or additive for '='."""

    def additive(t: Term) -> bool:
        occ = list(_occurrences(t))
        return len({name for name, _ in occ}) == len(occ) and not any(above & {Neg, Dom, Rng} for _, above in occ)

    monotone = all(Neg not in above for _, above in _occurrences(rhs))
    return not free_vars(guard) and additive(lhs) and (additive(rhs) if relation == "=" else monotone)


# Each relation as a test on the element masks of lhs and rhs; '!=0'
# reads "lhs != 0 implies rhs != 0".
RELATIONS = {
    "=": lambda lhs, rhs: lhs == rhs,
    "<=": lambda lhs, rhs: lhs | rhs == rhs,
    "!=0": lambda lhs, rhs: not lhs or rhs != 0,
}
RANGES = ("elements", "subidentities", "atoms", "identity-atoms")
# Largest atom count at which a variable may range over all 2**n elements.
ELEMENTS_GUARD = 10


def guard_element_range(A: AtomStructure) -> None:
    """Raise ``GuardExceeded`` when a variable may not range over all
    elements of A: above ``ELEMENTS_GUARD`` atoms."""
    if A.atom_count > ELEMENTS_GUARD:
        raise GuardExceeded(f"element range needs atom_count <= {ELEMENTS_GUARD}, got {A.atom_count}")


def _range(A: AtomStructure, kind: str, reduced: bool) -> list[int]:
    """The values of one variable, in ascending mask order."""
    if kind not in RANGES:
        raise ValueError(f"unknown range {kind!r}")
    below = A.identity if kind in ("subidentities", "identity-atoms") else A.full
    atoms = [1 << a for a in iter_bits(below)]
    if kind.endswith("atoms"):
        return atoms
    if reduced:
        return [0] + atoms
    guard_element_range(A)
    return [m for m in range(below + 1) if m | below == below]


def check_equation(
    A: AtomStructure,
    lhs: Term,
    rhs: Term,
    relation: str = "=",
    ranges: Optional[Mapping[str, str]] = None,
    guard: Term = Const("1"),
) -> Optional[dict[str, int]]:
    """The first assignment at which "guard != 0 implies lhs relation
    rhs" fails, or None if the law holds.

    ``relation`` is a key of ``RELATIONS``; each variable ranges over its
    entry of ``ranges``, one of ``RANGES``, all elements by default.  The
    witness is the lexicographically first failing assignment: variables
    in name order, values in ascending mask order.  An :func:`atom_decided`
    law finds it with its element and subidentity variables over 0 and
    the atoms of their range only: ``compose`` and ``conv_el`` are joins
    over atoms, so a failure where x is a join of atoms is a failure where
    x is one of them, a smaller mask.  A full element range above
    ``ELEMENTS_GUARD`` atoms raises ``GuardExceeded``.  Compositions and
    converses come from A's memo, kept across calls (the memo lemma).
    """
    test = RELATIONS[relation]
    vs = sorted({v for t in (lhs, rhs, guard) for v in free_vars(t)})
    reduced = atom_decided(lhs, rhs, relation, guard)
    values = [_range(A, (ranges or {}).get(v, "elements"), reduced) for v in vs]
    left, right, cond = (_compile(A, t, vs) for t in (lhs, rhs, guard))
    for vals in product(*values):
        if cond(vals) and not test(left(vals), right(vals)):
            return dict(zip(vs, vals))
    return None


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
    return next(({"X": m} for m in A.elements() if not _joined(A._memo[1], m)), None)


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
