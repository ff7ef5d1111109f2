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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class StructureError(ValueError):
    """Raised when raw data does not describe a valid atom structure."""


class EvalError(ValueError):
    """Raised for unbound variables or malformed terms."""


class GuardExceeded(RuntimeError):
    """Raised when a quantifier range or growth budget is too large."""


Triple = tuple[int, int, int]

# Largest atom count whose 4**n element composition table is built.
TABLE_GUARD = 10


def mask_of(atoms: Iterable[int]) -> int:
    m = 0
    for a in atoms:
        m |= 1 << a
    return m


def atoms_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


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


@dataclass(frozen=True)
class AtomStructure:
    """A validated finite atom structure.

    ``identity`` is a bitmask of identity atoms, ``converse`` the
    involution as an index tuple, and ``cycles`` the transform-closed
    set of composition facts (x, y, z) with z <= x ; y.
    """

    atom_count: int
    identity: int
    converse: tuple[int, ...]
    cycles: frozenset[Triple]
    names: tuple[str, ...] = field(default=(), compare=False)

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

    @cached_property
    def comp_table(self) -> tuple[tuple[int, ...], ...]:
        """comp_table[x][y] == compose(x, y) for all element masks x, y.

        Built by splitting off the lowest set bit: row x is row
        x - low(x) joined with the row of that atom, and an atom's row
        at y is its row at y - low(y) joined with one ``comp_atoms``
        entry.  4**n entries, so capped at ``TABLE_GUARD`` atoms."""
        n = self.atom_count
        if n > TABLE_GUARD:
            raise GuardExceeded(
                f"element composition table capped at {TABLE_GUARD} atoms, got {n}"
            )
        size = 1 << n
        atom_rows = []
        for ca in self.comp_atoms:
            row = [0] * size
            for y in range(1, size):
                low = y & -y
                row[y] = row[y ^ low] | ca[low.bit_length() - 1]
            atom_rows.append(row)
        table = [(0,) * size]
        for x in range(1, size):
            low = x & -x
            table.append(tuple(map(or_, table[x ^ low], atom_rows[low.bit_length() - 1])))
        return tuple(table)

    @cached_property
    def conv_table(self) -> tuple[int, ...]:
        """conv_table[x] == conv_el(x) for all element masks x."""
        table = [0]
        for x in range(1, 1 << self.atom_count):
            low = x & -x
            table.append(table[x ^ low] | 1 << self.converse[low.bit_length() - 1])
        return tuple(table)

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

    def dom_atom(self, a: int) -> int:
        return self.atom_domains[a]

    def rng_atom(self, a: int) -> int:
        return self.atom_ranges[a]

    def elements(self) -> range:
        return range(1 << self.atom_count)


def validate_atom_structure(
    atom_count: int,
    identity_atoms: Iterable[int],
    converse: Mapping[int, int] | Iterable[tuple[int, int]] | tuple[int, ...],
    facts: Iterable[Triple],
    auto_close: bool = False,
    names: Optional[Iterable[str]] = None,
) -> AtomStructure:
    """Check raw data and build an :class:`AtomStructure`.

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
    if isinstance(converse, Mapping):
        pairs = list(converse.items())
        full_map = False
    else:
        seq = list(converse)
        if seq and isinstance(seq[0], int):
            pairs = list(enumerate(seq))  # type: ignore[arg-type]
            full_map = True
        else:
            pairs = [(a, b) for a, b in seq]  # type: ignore[misc]
            full_map = False
    for a, b in pairs:
        _chk(a, "converse atom")
        _chk(b, "converse atom")
        conv[a] = b
        if not full_map:
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


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    symbol: str  # one of '0', '1', "0'", "1'"


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Comp(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Conv(Term):
    arg: Term


@dataclass(frozen=True)
class Dom(Term):
    arg: Term


@dataclass(frozen=True)
class Rng(Term):
    arg: Term


_CONSTS = ("0", "1", "0'", "1'")


def eval_term(A: AtomStructure, t: Term, env: Mapping[str, int]) -> int:
    """Evaluate a term to an element bitmask.

    Domain and range unfold by definition: dom x = x ; x~ . 1' and
    rng x = x~ ; x . 1'.
    """
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Const):
        if t.symbol == "0":
            return 0
        if t.symbol == "1":
            return A.full
        if t.symbol == "1'":
            return A.identity
        if t.symbol == "0'":
            return A.diversity
        raise EvalError(f"unknown constant {t.symbol!r}")
    if isinstance(t, Join):
        return eval_term(A, t.left, env) | eval_term(A, t.right, env)
    if isinstance(t, Meet):
        return eval_term(A, t.left, env) & eval_term(A, t.right, env)
    if isinstance(t, Comp):
        return A.compose(eval_term(A, t.left, env), eval_term(A, t.right, env))
    if isinstance(t, Neg):
        return A.full & ~eval_term(A, t.arg, env)
    if isinstance(t, Conv):
        return A.conv_el(eval_term(A, t.arg, env))
    if isinstance(t, Dom):
        return A.dom_el(eval_term(A, t.arg, env))
    if isinstance(t, Rng):
        return A.rng_el(eval_term(A, t.arg, env))
    raise EvalError(f"not a term: {t!r}")


def free_vars(t: Term) -> tuple[str, ...]:
    seen: list[str] = []

    def walk(s: Term) -> None:
        if isinstance(s, Var):
            if s.name not in seen:
                seen.append(s.name)
        elif isinstance(s, (Join, Meet, Comp)):
            walk(s.left)
            walk(s.right)
        elif isinstance(s, (Neg, Conv, Dom, Rng)):
            walk(s.arg)

    walk(t)
    return tuple(sorted(seen))


ELEMENTS_GUARD = 16


def check_equation(
    A: AtomStructure,
    lhs: Term,
    rhs: Term,
    mode: str = "elements",
) -> Optional[dict[str, int]]:
    """Test lhs = rhs under all assignments; None if it holds.

    ``mode='elements'`` ranges variables over all 2**n elements (guarded
    at 16 atoms); ``mode='atoms'`` over singletons only, which is sound
    exactly when both sides are additive in every variable -- the caller
    asserts that.  The returned witness is the lexicographically first
    failing assignment (variables in sorted name order, values in
    ascending mask order).
    """
    if mode not in ("elements", "atoms"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "elements" and A.atom_count > ELEMENTS_GUARD:
        raise GuardExceeded(
            f"elements mode needs atom_count <= {ELEMENTS_GUARD}, got {A.atom_count}"
        )
    vs = tuple(sorted(set(free_vars(lhs)) | set(free_vars(rhs))))
    if mode == "elements":
        values: Iterable[int] = range(1 << A.atom_count)
    else:
        values = [1 << a for a in range(A.atom_count)]
    for combo in product(values, repeat=len(vs)):
        env = dict(zip(vs, combo))
        if eval_term(A, lhs, env) != eval_term(A, rhs, env):
            return env
    return None


# ---------------------------------------------------------------------------
# Check results and classification


@dataclass(frozen=True)
class CheckResult:
    """One verdict: a named statement, whether it holds, and a detail
    (the witness when it fails, a note when it holds)."""

    name: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class ClassReport:
    is_wa: bool
    is_sa: bool
    is_ra: bool
    failures: tuple[tuple[str, dict[str, int]], ...]

    def failed_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.failures)


def _check_ra5_to_ra10(A: AtomStructure) -> list[tuple[str, dict[str, int]]]:
    """The first failing assignment of each of ra5-ra10, in that order,
    each law in increasing atom order.  Atom compositions come from
    ``comp_atoms`` and converse atoms from ``converse``; ra5 and ra8 send
    their left side through the lifted ``compose``/``conv_el`` of the
    joined mask, so they test the lifting itself.

    ra5 is tested for x <= y only.  Both of its sides are symmetric in x
    and y, so a failing (x, y, z) with x > y has the failing twin
    (y, x, z), which comes earlier in the loop order: the first witness
    is the same as over all (x, y, z)."""
    rng = range(A.atom_count)
    ca = A.comp_atoms
    conv = A.converse
    one = A.full
    bit = [1 << a for a in rng]
    conv_bit = [1 << c for c in conv]
    conv_rows = [ca[c] for c in conv]
    laws = (
        ("ra5", ({"x": bit[x], "y": bit[y], "z": bit[z]}
                 for x in rng for y in range(x, A.atom_count) for z in rng
                 if A.compose(bit[x] | bit[y], bit[z]) != ca[x][z] | ca[y][z])),
        ("ra6", ({"x": bit[x]} for x in rng if _join_row(ca[x], A.identity) != bit[x])),
        ("ra7", ({"x": bit[x]} for x in rng if conv[conv[x]] != x)),
        ("ra8", ({"x": bit[x], "y": bit[y]} for x in rng for y in rng
                 if A.conv_el(bit[x] | bit[y]) != conv_bit[x] | conv_bit[y])),
        ("ra9", ({"x": bit[x], "y": bit[y]} for x in rng for y in rng
                 if _join_row(conv_bit, ca[x][y]) != ca[conv[y]][conv[x]])),
        ("ra10", ({"x": bit[x], "y": bit[y]} for x in rng for y in rng
                  if _join_row(conv_rows[x], one & ~ca[x][y]) & bit[y])),
    )
    fails = []
    for name, cases in laws:
        witness = next(cases, None)
        if witness is not None:
            fails.append((name, witness))
    return fails


def _first_unabsorbed(one_row: tuple[int, ...], atoms: Iterable[int]) -> Optional[dict[str, int]]:
    """The first atom a of ``atoms`` with (a;1);1 != a;1, where
    ``one_row[a]`` is a;1, so that (a;1);1 is ``one_row`` joined over a;1."""
    for a in atoms:
        x1 = one_row[a]
        if _join_row(one_row, x1) != x1:
            return {"x": 1 << a}
    return None


def _ra4_elements(A: AtomStructure, one_row: tuple[int, ...]) -> Optional[dict[str, int]]:
    if A.atom_count > ELEMENTS_GUARD:
        raise GuardExceeded("element-mode ra4 check capped at 16 atoms")
    ident = A.identity
    for xm in range(1 << A.atom_count):
        u1 = _join_row(one_row, xm & ident)
        if _join_row(one_row, u1) != u1:
            return {"x": xm}
    return None


def _associativity(A: AtomStructure) -> Optional[dict[str, int]]:
    """(x;y);z joins column z of ``comp_atoms`` over x;y, and x;(y;z)
    joins row x over y;z."""
    rng = range(A.atom_count)
    ca = A.comp_atoms
    cols = [tuple(row[z] for row in ca) for z in rng]
    return next(
        (
            {"x": 1 << x, "y": 1 << y, "z": 1 << z}
            for x in rng
            for y in rng
            for z in rng
            if _join_row(cols[z], ca[x][y]) != _join_row(ca[x], ca[y][z])
        ),
        None,
    )


def classify(A: AtomStructure, ra4_elements: bool = False) -> ClassReport:
    """Classify the complex algebra of A as WA / SA / RA.

    The Boolean axioms hold by construction on a powerset, so only the
    composition and converse laws are tested, read off the atom tables
    ``comp_atoms`` and ``converse``.  Each law is atom-decided: its
    variables range over the atoms in increasing order, and the first
    failing assignment is its witness.  That is sound by additivity,
    since every term is additive in each variable, except ra10, which
    over atoms reduces to closure of the facts under the transform
    (a, b, c) -> (a~, c, b).

    - ra4, ((x.1');1);1 = (x.1');1: x over the identity atoms (a
      diversity atom gives the zero instance); with ``ra4_elements``, x
      over all 2**n elements instead (capped at ``ELEMENTS_GUARD`` atoms).
    - ra5, (x+y);z = x;z + y;z: atoms x <= y and z (symmetric in x, y).
    - ra6, x;1' = x: atoms x.
    - ra7, x~~ = x: atoms x.
    - ra8, (x+y)~ = x~ + y~: atoms x, y.
    - ra9, (x;y)~ = y~;x~: atoms x, y.
    - ra10, x~;-(x;y) <= -y: atoms x, y.
    - sa-law, (x;1);1 = x;1: atoms x.
    - associativity, (x;y);z = x;(y;z): atoms x, y, z.

    WA is ra4-ra10, SA ra5-ra10 with the sa-law, and RA ra5-ra10 with
    associativity.
    """
    fails = _check_ra5_to_ra10(A)
    one_row = tuple(_join_row(row, A.full) for row in A.comp_atoms)

    if ra4_elements:
        w4 = _ra4_elements(A, one_row)
    else:
        w4 = _first_unabsorbed(one_row, iter_bits(A.identity))
    if w4 is not None:
        fails_wa = fails + [("ra4", w4)]
    else:
        fails_wa = fails

    wsa = _first_unabsorbed(one_row, range(A.atom_count))
    wra = _associativity(A)

    base_ok = not fails
    is_wa = base_ok and w4 is None
    is_sa = base_ok and wsa is None
    is_ra = base_ok and wra is None

    all_fails = list(fails_wa)
    if wsa is not None:
        all_fails.append(("sa-law", wsa))
    if wra is not None:
        all_fails.append(("associativity", wra))
    return ClassReport(is_wa, is_sa, is_ra, tuple(all_fails))
