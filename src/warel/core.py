"""Finite atomic algebras presented by atom structures.

An atom structure lists the atoms of a finite algebra of binary-relation
type, the subset of atoms below the identity element, a converse
involution on atoms, and a set of composition facts.  A fact is an
ordered triple ``(x, y, z)`` read as "z is below x ; y".  The powerset
of the atoms then carries the full algebra: join is union, complement
is set complement, composition and converse are lifted from the facts
by complete additivity, and the identity element is the set of identity
atoms.

Elements are plain ``int`` bitmasks over atom indices.  Use
:func:`mask_of` / :func:`atoms_of` to convert between masks and index
collections.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


class StructureError(ValueError):
    """Raised when raw data does not describe a valid atom structure."""


class EvalError(ValueError):
    """Raised for unbound variables or malformed terms."""


class GuardExceeded(RuntimeError):
    """Raised when a quantifier range or growth budget is too large."""


class ConsistencyError(RuntimeError):
    """Raised when an internal consistency check breaks: a labelling
    repair breaks a structural property, a pair gets two atom labels, or
    a coordinate triple is reached from two carrier elements."""


class Frozen:
    """A base for values that refuse assignment.  ``__init__`` sets the
    fields with ``object.__setattr__``; a ``cached_property`` writes the
    instance dict, so a subclass with a ``__dict__`` still caches."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# The growth budgets, read by each stage when it runs, so one patch of
# either reaches every stage: the most points that saturation
# (:func:`warel.labelling.saturate`) or the trail universe
# (:func:`warel.trails.build_universe`) may create, and the most
# round-trip-free spines the universe may walk.
POINT_BUDGET = 500_000
SPINE_BUDGET = 2_000_000

Triple = tuple[int, int, int]
Matrix = tuple[Optional[int], ...]  # the 3x3 labels of three points, row by row, None unlabelled


def mask_of(atoms: Iterable[int]) -> int:
    m = 0
    for a in atoms:
        m |= 1 << a
    return m


def atoms_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _join_row(row: Sequence[int], mask: int) -> int:
    """The join of ``row[i]`` over the set bits i of ``mask``.  With an
    atom's ``comp_atoms`` row this composes that atom with ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= row[low.bit_length() - 1]
        mask ^= low
    return acc


def peirce_orbit(conv: tuple[int, ...], triple: Triple) -> frozenset[Triple]:
    """The closure of one composition fact under the six cycle transforms."""
    x, y, z = triple
    return frozenset(
        {
            (x, y, z),
            (conv[x], z, y),
            (y, conv[z], conv[x]),
            (conv[y], conv[x], conv[z]),
            (conv[z], x, conv[y]),
            (z, conv[y], x),
        }
    )


def peircean_closure(conv: tuple[int, ...], triples: Iterable[Triple]) -> frozenset[Triple]:
    out: set[Triple] = set()
    for t in triples:
        out |= peirce_orbit(conv, t)
    return frozenset(out)


def matrix_facts(m: Matrix) -> set[tuple[Optional[int], ...]]:
    """The label triples ``(m[3x+y], m[3y+z], m[3x+z])`` of the 27 index
    choices (x, y, z) over the 3x3 label matrix ``m``."""
    return {(m[3 * x + y], m[3 * y + z], m[3 * x + z]) for x, y, z in product(range(3), repeat=3)}


class AtomStructure(Frozen):
    """A validated finite atom structure.

    ``identity`` is a bitmask of identity atoms, ``converse`` the
    involution as an index tuple, and ``cycles`` the transform-closed
    set of composition facts (x, y, z) with z <= x ; y.  Equality and
    hash ignore ``names``.
    """

    def __init__(
        self, atom_count: int, identity: int, converse: tuple[int, ...], cycles: frozenset[Triple],
        names: tuple[str, ...] = (),
    ) -> None:
        put = object.__setattr__
        put(self, "atom_count", atom_count)
        put(self, "identity", identity)
        put(self, "converse", converse)
        put(self, "cycles", cycles)
        put(self, "names", names)

    def _key(self) -> tuple:
        return self.atom_count, self.identity, self.converse, self.cycles

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is AtomStructure else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"AtomStructure{self._key() + (self.names,)!r}"

    def atom_name(self, a: int) -> str:
        if self.names:
            return self.names[a]
        return f"a{a}"

    @cached_property
    def full(self) -> int:
        return (1 << self.atom_count) - 1

    @cached_property
    def diversity(self) -> int:
        return self.full & ~self.identity

    @cached_property
    def comp_atoms(self) -> tuple[tuple[int, ...], ...]:
        """comp_atoms[x][y] = bitmask of atoms z with z <= x ; y."""
        n = self.atom_count
        table = [[0] * n for _ in range(n)]
        for x, y, z in self.cycles:
            table[x][y] |= 1 << z
        return tuple(tuple(row) for row in table)

    @cached_property
    def factor_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """factor_pairs[a] = sorted (b, c) with a <= b ; c."""
        n = self.atom_count
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for b, c, a in sorted(self.cycles):
            out[a].append((b, c))
        return tuple(tuple(sorted(p)) for p in out)

    def matrix_violation(self, m: Matrix) -> Optional[tuple[int, int, int]]:
        """The first index choice (x, y, z), x slowest, with all three
        entries labelled that breaks ``m[3x+z] <= m[3x+y] ; m[3y+z]`` in the
        3x3 label matrix ``m`` (None for an unlabelled pair), or None."""
        comp = self.comp_atoms
        for x, y, z in product(range(3), repeat=3):
            a, b, c = m[3 * x + y], m[3 * y + z], m[3 * x + z]
            if None not in (a, b, c) and not (1 << c) & comp[a][b]:
                return x, y, z
        return None

    def compose(self, xm: int, ym: int) -> int:
        acc = 0
        table = self.comp_atoms
        while xm:
            low = xm & -xm
            acc |= _join_row(table[low.bit_length() - 1], ym)
            xm ^= low
        return acc

    def conv_el(self, xm: int) -> int:
        acc = 0
        conv = self.converse
        while xm:
            low = xm & -xm
            acc |= 1 << conv[low.bit_length() - 1]
            xm ^= low
        return acc

    def dom_el(self, xm: int) -> int:
        return self.compose(xm, self.conv_el(xm)) & self.identity

    def rng_el(self, xm: int) -> int:
        return self.compose(self.conv_el(xm), xm) & self.identity

    @cached_property
    def atom_domains(self) -> tuple[int, ...]:
        """atom_domains[a] == dom_el(1 << a) for every atom a."""
        return tuple(self.dom_el(1 << a) for a in range(self.atom_count))

    @cached_property
    def atom_ranges(self) -> tuple[int, ...]:
        """atom_ranges[a] == rng_el(1 << a) for every atom a."""
        return tuple(self.rng_el(1 << a) for a in range(self.atom_count))

    def elements(self) -> range:
        return range(1 << self.atom_count)


def validate_atom_structure(
    atom_count: int,
    identity_atoms: Iterable[int],
    converse: Mapping[int, int],
    facts: Iterable[Triple],
    auto_close: bool = False,
    names: Optional[Iterable[str]] = None,
) -> AtomStructure:
    """Check raw data and build an :class:`AtomStructure`.

    ``converse`` maps atoms to their converses; an atom it leaves out is
    its own converse, and each entry a: b also sets b's converse to a.
    With ``auto_close`` the fact set is replaced by its closure under
    the six cycle transforms, plus the self-cycle (e, e, e) for every
    identity atom e (without which e ; 1' = e is unsatisfiable).
    Without it, any fact set that is not already closed is rejected.
    """
    if atom_count < 1:
        raise StructureError("atom_count must be at least 1")

    def _chk(a: int, what: str) -> int:
        if not isinstance(a, int) or not 0 <= a < atom_count:
            raise StructureError(f"{what} {a!r} out of range 0..{atom_count - 1}")
        return a

    conv = list(range(atom_count))
    for a, b in converse.items():
        _chk(a, "converse atom")
        _chk(b, "converse atom")
        conv[a] = b
        conv[b] = a
    for a in range(atom_count):
        if conv[conv[a]] != a:
            raise StructureError(f"converse is not an involution at atom {a}")

    ident = 0
    for e in identity_atoms:
        _chk(e, "identity atom")
        ident |= 1 << e
    for e in iter_bits(ident):
        if conv[e] != e:
            raise StructureError(
                f"identity atom {e} must be self-converse, has converse {conv[e]}"
            )

    raw = set()
    for t in facts:
        x, y, z = t
        _chk(x, "fact atom")
        _chk(y, "fact atom")
        _chk(z, "fact atom")
        raw.add((x, y, z))

    conv_t = tuple(conv)
    closed = set(peircean_closure(conv_t, raw))
    if auto_close:
        for e in iter_bits(ident):
            closed.add((e, e, e))
    elif closed != raw:
        missing = sorted(closed - raw)[0]
        raise StructureError(
            f"facts are not closed under the cycle transforms; missing {missing}"
        )

    name_t: tuple[str, ...] = ()
    if names is not None:
        name_t = tuple(names)
        if len(name_t) != atom_count:
            raise StructureError("names must match atom_count")

    return AtomStructure(atom_count, ident, conv_t, frozenset(closed), name_t)


# ---------------------------------------------------------------------------
# Terms


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
    from atoms.  Domain and range unfold by definition: dom x = x ; x~ . 1'
    and rng x = x~ ; x . 1'.
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
        f, full, conv = _compile(A, t.arg, names), A.full, A.conv_el
        if isinstance(t, Neg):
            return lambda vals: full & ~f(vals)
        return lambda vals: conv(f(vals))
    if isinstance(t, (Join, Meet, Comp)):
        left, right = _compile(A, t.left, names), _compile(A, t.right, names)
        if isinstance(t, Join):
            return lambda vals: left(vals) | right(vals)
        if isinstance(t, Meet):
            return lambda vals: left(vals) & right(vals)
        compose = A.compose
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
    ``ELEMENTS_GUARD`` atoms raises ``GuardExceeded``.
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


# ---------------------------------------------------------------------------
# Check results and classification


class CheckResult(NamedTuple):
    """One verdict: a named statement, whether it holds, and a detail
    (the witness when it fails, a note when it holds)."""

    name: str
    holds: bool
    detail: str = ""


Witness = Optional[dict[str, int]]


def _first(failing: Iterator[tuple[int, ...]]) -> Witness:
    """The first atom assignment ``failing`` yields, as masks of x, y, z."""
    atoms = next(failing, None)
    return None if atoms is None else {v: 1 << a for v, a in zip("xyz", atoms)}


def _unabsorbed(A: AtomStructure, among: int) -> Witness:
    """The first atom x of ``among`` with (x;1);1 != x;1: w;1 joins row w
    of ``comp_atoms`` over all atoms, and (x;1);1 joins the w;1 over x;1."""
    one_row = [_join_row(row, A.full) for row in A.comp_atoms]
    return _first((x,) for x in iter_bits(among) if _join_row(one_row, one_row[x]) != one_row[x])


def _associativity(A: AtomStructure) -> Witness:
    """(x;y);z joins column z of ``comp_atoms`` over x;y; x;(y;z) joins row x over y;z."""
    ca = A.comp_atoms
    cols = [tuple(row[z] for row in ca) for z in range(A.atom_count)]
    return _first(
        (x, y, z) for x, y, z in product(range(A.atom_count), repeat=3)
        if _join_row(cols[z], ca[x][y]) != _join_row(ca[x], ca[y][z]))


# The classified laws in report order: name, the verdicts a failure
# refutes (bit 0 WA, bit 1 SA, bit 2 RA) and the first-witness function.
_LAWS: tuple[tuple[str, int, Callable[[AtomStructure], Witness]], ...] = (
    ("ra6", 0b111, lambda A: _first(
        (x,) for x in range(A.atom_count) if _join_row(A.comp_atoms[x], A.identity) != 1 << x)),
    ("ra7", 0b111, lambda A: _first((x,) for x in range(A.atom_count) if A.converse[A.converse[x]] != x)),
    ("ra9", 0b111, lambda A: _first(
        (x, y) for x, y in product(range(A.atom_count), repeat=2)
        if A.conv_el(A.comp_atoms[x][y]) != A.comp_atoms[A.converse[y]][A.converse[x]])),
    ("ra10", 0b111, lambda A: _first(
        (x, y) for x, y in product(range(A.atom_count), repeat=2)
        if _join_row(A.comp_atoms[A.converse[x]], A.full & ~A.comp_atoms[x][y]) >> y & 1)),
    ("ra4", 0b001, lambda A: _unabsorbed(A, A.identity)),
    ("sa-law", 0b010, lambda A: _unabsorbed(A, A.full)),
    ("associativity", 0b100, _associativity),
)


class ClassReport(Frozen):
    """The verdicts of :func:`classify`.  ``failures``, every failing law
    with its first witness in the order ra6, ra7, ra9, ra10, ra4, sa-law,
    associativity, is built on first access and cached: a law evaluated
    for the verdicts is not evaluated again, and each other law ranges
    over the same atoms as in :func:`classify`."""

    def __init__(self, is_wa: bool, is_sa: bool, is_ra: bool, algebra: AtomStructure,
                 evaluated: dict[str, Witness]) -> None:
        put = object.__setattr__
        put(self, "is_wa", is_wa)
        put(self, "is_sa", is_sa)
        put(self, "is_ra", is_ra)
        put(self, "_algebra", algebra)
        put(self, "_evaluated", evaluated)

    def __repr__(self) -> str:
        return f"ClassReport(is_wa={self.is_wa!r}, is_sa={self.is_sa!r}, is_ra={self.is_ra!r})"

    @cached_property
    def failures(self) -> tuple[tuple[str, dict[str, int]], ...]:
        seen = self._evaluated
        laws = ((name, seen[name] if name in seen else law(self._algebra)) for name, _, law in _LAWS)
        return tuple((name, w) for name, w in laws if w is not None)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.failures)


def classify(A: AtomStructure) -> ClassReport:
    """Classify the complex algebra of A as WA / SA / RA.

    The Boolean axioms hold by construction on a powerset.  So do ra5,
    (x+y);z = x;z + y;z, and ra8, (x+y)~ = x~ + y~: ``compose`` and
    ``conv_el`` are joins over the set bits of their arguments, so both
    laws hold on every ``AtomStructure``, even one built directly with
    unclosed facts or a converse that is no involution.  The remaining
    composition and converse laws are tested, read off the atom tables
    ``comp_atoms`` and ``converse``.  Each law is atom-decided: its
    variables range over the atoms in increasing order, and the first
    failing assignment is its witness.  That is sound by additivity,
    since every term is additive in each variable, except ra10, which
    over atoms reduces to closure of the facts under the transform
    (a, b, c) -> (a~, c, b).  The laws, in the order they are evaluated:

    - ra6, x;1' = x: atoms x.
    - ra7, x~~ = x: atoms x.
    - ra9, (x;y)~ = y~;x~: atoms x, y.
    - ra10, x~;-(x;y) <= -y: atoms x, y.
    - ra4, ((x.1');1);1 = (x.1');1: x over the identity atoms (a
      diversity atom gives the zero instance).
    - sa-law, (x;1);1 = x;1: atoms x.
    - associativity, (x;y);z = x;(y;z): atoms x, y, z.

    WA is decided as ra6, ra7, ra9, ra10 and ra4; SA as ra6, ra7, ra9,
    ra10 and the sa-law; RA as ra6, ra7, ra9, ra10 and associativity.
    Evaluation stops at the first of ra6, ra7, ra9 and ra10 that fails,
    with all three verdicts no; otherwise ra4, the sa-law and
    associativity are evaluated once each.  The report builds its
    ``failures`` only when they are read (see :class:`ClassReport`).
    """
    evaluated: dict[str, Witness] = {}
    holds = 0b111
    for name, refutes, law in _LAWS:
        if holds & refutes:
            evaluated[name] = witness = law(A)
            if witness is not None:
                holds &= ~refutes
    return ClassReport(bool(holds & 1), bool(holds & 2), bool(holds & 4), A, evaluated)
