"""Elementary-law test suite for weakly associative algebras.

Thirty-three consequences of the defining axioms, each checked over the
quantifier range on which it is stated: most range over all elements,
the atom laws over atoms only, and the two complete-additivity laws
over all subsets of the atom set (guarded, since that range is 2**n).
The whole suite is expected to pass on any structure whose complex
algebra classifies as WA; a failure therefore indicates either a
non-WA input or an implementation bug, which is exactly what the
suite is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import AtomStructure, CheckResult, GuardExceeded, classify, iter_bits

SUBSET_GUARD = 12

Witness = Optional[dict[str, int]]


@dataclass(frozen=True)
class Law:
    name: str
    formula: str
    scope: str  # 'elements' | 'atoms' | 'subsets'
    check: Callable[[AtomStructure], Witness]


def _els(A: AtomStructure) -> range:
    return range(1 << A.atom_count)


def _atoms(A: AtomStructure) -> list[int]:
    return [1 << a for a in range(A.atom_count)]


def _law_conv_identity(A: AtomStructure) -> Witness:
    return None if A.conv_el(A.identity) == A.identity else {}


def _law_conv_top(A: AtomStructure) -> Witness:
    return None if A.conv_el(A.full) == A.full else {}


def _law_conv_zero(A: AtomStructure) -> Witness:
    return None if A.conv_el(0) == 0 else {}


def _law_conv_monotone(A: AtomStructure) -> Witness:
    for x in _els(A):
        for y in _els(A):
            if x | y == y and A.conv_el(x) | A.conv_el(y) != A.conv_el(y):
                return {"x": x, "y": y}
    return None


def _law_comp_monotone_left(A: AtomStructure) -> Witness:
    for x in _els(A):
        for y in _els(A):
            if x | y != y:
                continue
            for z in _els(A):
                if A.compose(x, z) | A.compose(y, z) != A.compose(y, z):
                    return {"x": x, "y": y, "z": z}
    return None


def _law_comp_additive_right(A: AtomStructure) -> Witness:
    for z in _els(A):
        for x in _els(A):
            for y in _els(A):
                if A.compose(z, x | y) != A.compose(z, x) | A.compose(z, y):
                    return {"x": x, "y": y, "z": z}
    return None


def _law_comp_monotone_right(A: AtomStructure) -> Witness:
    for x in _els(A):
        for y in _els(A):
            if x | y != y:
                continue
            for z in _els(A):
                if A.compose(z, x) | A.compose(z, y) != A.compose(z, y):
                    return {"x": x, "y": y, "z": z}
    return None


def _law_zero_right(A: AtomStructure) -> Witness:
    for x in _els(A):
        if A.compose(x, 0) != 0:
            return {"x": x}
    return None


def _law_zero_left(A: AtomStructure) -> Witness:
    for x in _els(A):
        if A.compose(0, x) != 0:
            return {"x": x}
    return None


def _law_identity_left(A: AtomStructure) -> Witness:
    for x in _els(A):
        if A.compose(A.identity, x) != x:
            return {"x": x}
    return None


def _law_peirce_absorption(A: AtomStructure) -> Witness:
    # x;y . z  =  x;(y . x~;z) . z  =  (x . z;y~);y . z
    for x in _els(A):
        xc = A.conv_el(x)
        for y in _els(A):
            for z in _els(A):
                base = A.compose(x, y) & z
                mid = A.compose(x, y & A.compose(xc, z)) & z
                left = A.compose(x & A.compose(z, A.conv_el(y)), y) & z
                if base != mid or base != left:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_peirce_left_bound(A: AtomStructure) -> Witness:
    for x in _els(A):
        xc = A.conv_el(x)
        for y in _els(A):
            for z in _els(A):
                lhs = A.compose(x, y) & z
                rhs = A.compose(x, y & A.compose(xc, z))
                if lhs | rhs != rhs:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_peirce_right_bound(A: AtomStructure) -> Witness:
    for x in _els(A):
        xc = A.conv_el(x)
        for y in _els(A):
            for z in _els(A):
                lhs = A.compose(y, x) & z
                rhs = A.compose(y & A.compose(z, xc), x)
                if lhs | rhs != rhs:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_cycle_shift_left(A: AtomStructure) -> Witness:
    # x;y . z != 0  implies  y . x~;z != 0
    for x in _els(A):
        xc = A.conv_el(x)
        for y in _els(A):
            for z in _els(A):
                if A.compose(x, y) & z and not (y & A.compose(xc, z)):
                    return {"x": x, "y": y, "z": z}
    return None


def _law_cycle_shift_right(A: AtomStructure) -> Witness:
    # y;x . z != 0  implies  y . z;x~ != 0
    for x in _els(A):
        xc = A.conv_el(x)
        for y in _els(A):
            for z in _els(A):
                if A.compose(y, x) & z and not (y & A.compose(z, xc)):
                    return {"x": x, "y": y, "z": z}
    return None


def _subidentities(A: AtomStructure) -> list[int]:
    return [m for m in _els(A) if m | A.identity == A.identity]


def _law_subid_meet_compose(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        for v in _subidentities(A):
            if u & v != A.compose(u, v):
                return {"u": u, "v": v}
    return None


def _law_subid_below_converse(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        if u | A.conv_el(u) != A.conv_el(u):
            return {"u": u}
    return None


def _law_subid_self_converse(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        if A.conv_el(u) != u:
            return {"u": u}
    return None


def _law_subid_compose_meet(A: AtomStructure) -> Witness:
    # u <= 1'  implies  u;x = x . u;1
    for u in _subidentities(A):
        u1 = A.compose(u, A.full)
        for x in _els(A):
            if A.compose(u, x) != x & u1:
                return {"u": u, "x": x}
    return None


def _law_conv_completely_additive(A: AtomStructure) -> Witness:
    if A.atom_count > SUBSET_GUARD:
        raise GuardExceeded("subset law capped at 12 atoms")
    for xm in _els(A):
        acc = 0
        for a in iter_bits(xm):
            acc |= A.conv_el(1 << a)
        if A.conv_el(xm) != acc:
            return {"X": xm}
    return None


def _law_comp_completely_additive(A: AtomStructure) -> Witness:
    # z;(sum X) = sum of z;x over x in X, z ranging over atoms (both
    # sides are additive in z, so atoms decide the element law).
    if A.atom_count > SUBSET_GUARD:
        raise GuardExceeded("subset law capped at 12 atoms")
    for z in _atoms(A):
        for xm in _els(A):
            acc = 0
            for a in iter_bits(xm):
                acc |= A.compose(z, 1 << a)
            if A.compose(z, xm) != acc:
                return {"z": z, "X": xm}
    return None


def _law_atom_converse_atom(A: AtomStructure) -> Witness:
    for x in _atoms(A):
        if bin(A.conv_el(x)).count("1") != 1:
            return {"x": x}
    return None


def _law_cycle_law(A: AtomStructure) -> Witness:
    # For atoms the six rotations of z <= x;y are equivalent.
    for xi in range(A.atom_count):
        for yi in range(A.atom_count):
            for zi in range(A.atom_count):
                x, y, z = 1 << xi, 1 << yi, 1 << zi
                xc, yc, zc = (1 << A.converse[i] for i in (xi, yi, zi))
                forms = [
                    bool(A.compose(x, y) & z),
                    bool(A.compose(xc, z) & y),
                    bool(A.compose(y, zc) & xc),
                    bool(A.compose(yc, xc) & zc),
                    bool(A.compose(zc, x) & yc),
                    bool(A.compose(z, yc) & x),
                ]
                if len(set(forms)) != 1:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_dom_rng_definitions(A: AtomStructure) -> Witness:
    for x in _els(A):
        if A.dom_el(x) != A.compose(x, A.conv_el(x)) & A.identity:
            return {"x": x}
        if A.rng_el(x) != A.compose(A.conv_el(x), x) & A.identity:
            return {"x": x}
    return None


def _law_dom_rng_converse_swap(A: AtomStructure) -> Witness:
    for x in _els(A):
        xc = A.conv_el(x)
        if A.dom_el(xc) != A.rng_el(x) or A.rng_el(xc) != A.dom_el(x):
            return {"x": x}
    return None


def _law_dom_rng_absorption(A: AtomStructure) -> Witness:
    for x in _els(A):
        if A.compose(A.dom_el(x), x) != x or A.compose(x, A.rng_el(x)) != x:
            return {"x": x}
    return None


def _law_subid_own_domain(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        if A.dom_el(u) != u or A.rng_el(u) != u:
            return {"u": u}
    return None


def _law_subid_left_associates(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        for x in _els(A):
            ux = A.compose(u, x)
            for y in _els(A):
                if A.compose(ux, y) != A.compose(u, A.compose(x, y)):
                    return {"u": u, "x": x, "y": y}
    return None


def _law_subid_middle_associates(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        for x in _els(A):
            xu = A.compose(x, u)
            for y in _els(A):
                lhs = A.compose(xu, y)
                rhs = A.compose(x, A.compose(u, y))
                if lhs | rhs != rhs:
                    return {"u": u, "x": x, "y": y}
    return None


def _law_subid_merge(A: AtomStructure) -> Witness:
    for u in _subidentities(A):
        for v in _subidentities(A):
            uv = u & v
            for x in _els(A):
                xu = A.compose(x, u)
                for y in _els(A):
                    lhs = A.compose(xu, A.compose(v, y))
                    rhs = A.compose(x, A.compose(uv, y))
                    if lhs | rhs != rhs:
                        return {"u": u, "v": v, "x": x, "y": y}
    return None


def _law_atom_dom_rng_atoms(A: AtomStructure) -> Witness:
    for x in _atoms(A):
        if bin(A.dom_el(x)).count("1") != 1 or bin(A.rng_el(x)).count("1") != 1:
            return {"x": x}
    return None


def _law_range_meets_domain(A: AtomStructure) -> Witness:
    # atoms x, y with x;y != 0  imply  rng x = dom y
    for x in _atoms(A):
        for y in _atoms(A):
            if A.compose(x, y) and A.rng_el(x) != A.dom_el(y):
                return {"x": x, "y": y}
    return None


def _law_subid_forces_domain(A: AtomStructure) -> Witness:
    # identity atom u and atom x with u;x != 0  imply  u = dom x
    for ui in iter_bits(A.identity):
        u = 1 << ui
        for x in _atoms(A):
            if A.compose(u, x) and u != A.dom_el(x):
                return {"u": u, "x": x}
    return None


LAWS: tuple[Law, ...] = (
    Law("converse-identity-fixed", "1'~ = 1'", "elements", _law_conv_identity),
    Law("converse-top-fixed", "1~ = 1", "elements", _law_conv_top),
    Law("converse-zero-fixed", "0~ = 0", "elements", _law_conv_zero),
    Law("converse-monotone", "x <= y implies x~ <= y~", "elements", _law_conv_monotone),
    Law("composition-monotone-left", "x <= y implies x;z <= y;z", "elements", _law_comp_monotone_left),
    Law("composition-additive-right", "z;(x+y) = z;x + z;y", "elements", _law_comp_additive_right),
    Law("composition-monotone-right", "x <= y implies z;x <= z;y", "elements", _law_comp_monotone_right),
    Law("zero-right-annihilates", "x;0 = 0", "elements", _law_zero_right),
    Law("zero-left-annihilates", "0;x = 0", "elements", _law_zero_left),
    Law("identity-left-neutral", "1';x = x", "elements", _law_identity_left),
    Law("peirce-absorption", "x;y.z = x;(y.x~;z).z = (x.z;y~);y.z", "elements", _law_peirce_absorption),
    Law("peirce-left-bound", "x;y.z <= x;(y.x~;z)", "elements", _law_peirce_left_bound),
    Law("peirce-right-bound", "y;x.z <= (y.z;x~);x", "elements", _law_peirce_right_bound),
    Law("cycle-shift-left", "x;y.z != 0 implies y.x~;z != 0", "elements", _law_cycle_shift_left),
    Law("cycle-shift-right", "y;x.z != 0 implies y.z;x~ != 0", "elements", _law_cycle_shift_right),
    Law("subidentity-meet-is-compose", "u,v <= 1' implies u.v = u;v", "elements", _law_subid_meet_compose),
    Law("subidentity-below-converse", "u <= 1' implies u <= u~", "elements", _law_subid_below_converse),
    Law("subidentity-self-converse", "u <= 1' implies u~ = u", "elements", _law_subid_self_converse),
    Law("subidentity-compose-meet", "u <= 1' implies u;x = x.u;1", "elements", _law_subid_compose_meet),
    Law("converse-completely-additive", "(sum X)~ = sum x~", "subsets", _law_conv_completely_additive),
    Law("composition-completely-additive", "z;(sum X) = sum z;x", "subsets", _law_comp_completely_additive),
    Law("atom-converse-atom", "x atom implies x~ atom", "atoms", _law_atom_converse_atom),
    Law("cycle-law", "six rotations of z <= x;y agree on atoms", "atoms", _law_cycle_law),
    Law("domain-range-definitions", "dom x = x;x~.1', rng x = x~;x.1'", "elements", _law_dom_rng_definitions),
    Law("domain-range-converse-swap", "dom x~ = rng x, rng x~ = dom x", "elements", _law_dom_rng_converse_swap),
    Law("domain-range-absorption", "x = dom x;x = x;rng x", "elements", _law_dom_rng_absorption),
    Law("subidentity-own-domain", "u <= 1' implies dom u = rng u = u", "elements", _law_subid_own_domain),
    Law("subidentity-left-associates", "u <= 1' implies (u;x);y = u;(x;y)", "elements", _law_subid_left_associates),
    Law("subidentity-middle-associates", "u <= 1' implies (x;u);y <= x;(u;y)", "elements", _law_subid_middle_associates),
    Law("subidentity-merge", "u,v <= 1' implies (x;u);(v;y) <= x;((u.v);y)", "elements", _law_subid_merge),
    Law("atom-domain-range-atoms", "x atom implies dom x, rng x atoms", "atoms", _law_atom_dom_rng_atoms),
    Law("range-meets-domain", "atoms, x;y != 0 implies rng x = dom y", "atoms", _law_range_meets_domain),
    Law("subidentity-forces-domain", "u,x atoms, u <= 1', u;x != 0 implies u = dom x", "atoms", _law_subid_forces_domain),
)

LAW_INDEX = {law.name: law for law in LAWS}


def elementary_law_suite(A: AtomStructure, require_wa: bool = True) -> tuple[CheckResult, ...]:
    """Run every law; raises if the structure is not WA (the suite is
    only claimed for WA inputs) unless ``require_wa`` is off."""
    if require_wa:
        report = classify(A)
        if not report.is_wa:
            raise ValueError(
                "law suite requires a WA structure; failed axioms: "
                + ", ".join(report.failed_names())
            )
    results = []
    for law in LAWS:
        w = law.check(A)
        results.append(CheckResult(law.name, w is None, str(w or "")))
    return tuple(results)
