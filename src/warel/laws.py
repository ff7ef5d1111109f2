"""Elementary-law test suite for weakly associative algebras.

Thirty-three consequences of the defining axioms, each checked over the
quantifier range on which it is stated: most range over all elements,
the atom laws over atoms only, and the two complete-additivity laws
over all subsets of the atom set.  The whole suite is expected to pass
on any structure whose complex algebra classifies as WA; a failure
therefore indicates either a non-WA input or an implementation bug,
which is exactly what the suite is for.

Every law reads composition and converse off the structure's element
tables (``AtomStructure.comp_table`` and ``conv_table``) instead of
lifting them from atoms per call.  The one guard is the table's: above
``core.TABLE_GUARD`` (10) atoms, :func:`elementary_law_suite` raises
``GuardExceeded`` before its first sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import AtomStructure, CheckResult, classify, iter_bits

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


def _dom_rng(A: AtomStructure) -> tuple[list[int], list[int]]:
    """Per element x: dom x = x;x~.1' and rng x = x~;x.1'."""
    C, V, ident = A.comp_table, A.conv_table, A.identity
    dom = [C[x][V[x]] & ident for x in _els(A)]
    rng = [C[V[x]][x] & ident for x in _els(A)]
    return dom, rng


def _law_conv_identity(A: AtomStructure) -> Witness:
    return None if A.conv_table[A.identity] == A.identity else {}


def _law_conv_top(A: AtomStructure) -> Witness:
    return None if A.conv_table[A.full] == A.full else {}


def _law_conv_zero(A: AtomStructure) -> Witness:
    return None if A.conv_table[0] == 0 else {}


def _law_conv_monotone(A: AtomStructure) -> Witness:
    V = A.conv_table
    for x in _els(A):
        vx = V[x]
        for y in _els(A):
            if x | y == y and vx | V[y] != V[y]:
                return {"x": x, "y": y}
    return None


def _law_comp_monotone_left(A: AtomStructure) -> Witness:
    C = A.comp_table
    for x in _els(A):
        cx = C[x]
        for y in _els(A):
            if x | y != y:
                continue
            cy = C[y]
            for z in _els(A):
                if cx[z] | cy[z] != cy[z]:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_comp_additive_right(A: AtomStructure) -> Witness:
    C = A.comp_table
    for z in _els(A):
        cz = C[z]
        for x in _els(A):
            for y in _els(A):
                if cz[x | y] != cz[x] | cz[y]:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_comp_monotone_right(A: AtomStructure) -> Witness:
    C = A.comp_table
    for x in _els(A):
        for y in _els(A):
            if x | y != y:
                continue
            for z in _els(A):
                cz = C[z]
                if cz[x] | cz[y] != cz[y]:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_zero_right(A: AtomStructure) -> Witness:
    C = A.comp_table
    for x in _els(A):
        if C[x][0] != 0:
            return {"x": x}
    return None


def _law_zero_left(A: AtomStructure) -> Witness:
    c0 = A.comp_table[0]
    for x in _els(A):
        if c0[x] != 0:
            return {"x": x}
    return None


def _law_identity_left(A: AtomStructure) -> Witness:
    c1 = A.comp_table[A.identity]
    for x in _els(A):
        if c1[x] != x:
            return {"x": x}
    return None


def _law_peirce_absorption(A: AtomStructure) -> Witness:
    # x;y . z  =  x;(y . x~;z) . z  =  (x . z;y~);y . z
    C, V = A.comp_table, A.conv_table
    for x in _els(A):
        cx, cxc = C[x], C[V[x]]
        for y in _els(A):
            xy, yc = cx[y], V[y]
            for z in _els(A):
                base = xy & z
                mid = cx[y & cxc[z]] & z
                left = C[x & C[z][yc]][y] & z
                if base != mid or base != left:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_peirce_left_bound(A: AtomStructure) -> Witness:
    C, V = A.comp_table, A.conv_table
    for x in _els(A):
        cx, cxc = C[x], C[V[x]]
        for y in _els(A):
            xy = cx[y]
            for z in _els(A):
                lhs = xy & z
                rhs = cx[y & cxc[z]]
                if lhs | rhs != rhs:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_peirce_right_bound(A: AtomStructure) -> Witness:
    C, V = A.comp_table, A.conv_table
    for x in _els(A):
        xc = V[x]
        for y in _els(A):
            yx = C[y][x]
            for z in _els(A):
                lhs = yx & z
                rhs = C[y & C[z][xc]][x]
                if lhs | rhs != rhs:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_cycle_shift_left(A: AtomStructure) -> Witness:
    # x;y . z != 0  implies  y . x~;z != 0
    C, V = A.comp_table, A.conv_table
    for x in _els(A):
        cx, cxc = C[x], C[V[x]]
        for y in _els(A):
            xy = cx[y]
            for z in _els(A):
                if xy & z and not (y & cxc[z]):
                    return {"x": x, "y": y, "z": z}
    return None


def _law_cycle_shift_right(A: AtomStructure) -> Witness:
    # y;x . z != 0  implies  y . z;x~ != 0
    C, V = A.comp_table, A.conv_table
    for x in _els(A):
        xc = V[x]
        for y in _els(A):
            yx = C[y][x]
            for z in _els(A):
                if yx & z and not (y & C[z][xc]):
                    return {"x": x, "y": y, "z": z}
    return None


def _subidentities(A: AtomStructure) -> list[int]:
    return [m for m in _els(A) if m | A.identity == A.identity]


def _law_subid_meet_compose(A: AtomStructure) -> Witness:
    C = A.comp_table
    subs = _subidentities(A)
    for u in subs:
        for v in subs:
            if u & v != C[u][v]:
                return {"u": u, "v": v}
    return None


def _law_subid_below_converse(A: AtomStructure) -> Witness:
    V = A.conv_table
    for u in _subidentities(A):
        if u | V[u] != V[u]:
            return {"u": u}
    return None


def _law_subid_self_converse(A: AtomStructure) -> Witness:
    V = A.conv_table
    for u in _subidentities(A):
        if V[u] != u:
            return {"u": u}
    return None


def _law_subid_compose_meet(A: AtomStructure) -> Witness:
    # u <= 1'  implies  u;x = x . u;1
    C = A.comp_table
    for u in _subidentities(A):
        cu = C[u]
        u1 = cu[A.full]
        for x in _els(A):
            if cu[x] != x & u1:
                return {"u": u, "x": x}
    return None


def _law_conv_completely_additive(A: AtomStructure) -> Witness:
    V = A.conv_table
    for xm in _els(A):
        acc = 0
        for a in iter_bits(xm):
            acc |= V[1 << a]
        if V[xm] != acc:
            return {"X": xm}
    return None


def _law_comp_completely_additive(A: AtomStructure) -> Witness:
    # z;(sum X) = sum of z;x over x in X, z ranging over atoms (both
    # sides are additive in z, so atoms decide the element law).
    C = A.comp_table
    for z in _atoms(A):
        cz = C[z]
        for xm in _els(A):
            acc = 0
            for a in iter_bits(xm):
                acc |= cz[1 << a]
            if cz[xm] != acc:
                return {"z": z, "X": xm}
    return None


def _law_atom_converse_atom(A: AtomStructure) -> Witness:
    V = A.conv_table
    for x in _atoms(A):
        if bin(V[x]).count("1") != 1:
            return {"x": x}
    return None


def _law_cycle_law(A: AtomStructure) -> Witness:
    # For atoms the six rotations of z <= x;y are equivalent.
    C = A.comp_table
    for xi in range(A.atom_count):
        for yi in range(A.atom_count):
            for zi in range(A.atom_count):
                x, y, z = 1 << xi, 1 << yi, 1 << zi
                xc, yc, zc = (1 << A.converse[i] for i in (xi, yi, zi))
                forms = [
                    bool(C[x][y] & z),
                    bool(C[xc][z] & y),
                    bool(C[y][zc] & xc),
                    bool(C[yc][xc] & zc),
                    bool(C[zc][x] & yc),
                    bool(C[z][yc] & x),
                ]
                if len(set(forms)) != 1:
                    return {"x": x, "y": y, "z": z}
    return None


def _law_dom_rng_definitions(A: AtomStructure) -> Witness:
    dom, rng = _dom_rng(A)
    for x in _els(A):
        if A.dom_el(x) != dom[x]:
            return {"x": x}
        if A.rng_el(x) != rng[x]:
            return {"x": x}
    return None


def _law_dom_rng_converse_swap(A: AtomStructure) -> Witness:
    V = A.conv_table
    dom, rng = _dom_rng(A)
    for x in _els(A):
        xc = V[x]
        if dom[xc] != rng[x] or rng[xc] != dom[x]:
            return {"x": x}
    return None


def _law_dom_rng_absorption(A: AtomStructure) -> Witness:
    C = A.comp_table
    dom, rng = _dom_rng(A)
    for x in _els(A):
        if C[dom[x]][x] != x or C[x][rng[x]] != x:
            return {"x": x}
    return None


def _law_subid_own_domain(A: AtomStructure) -> Witness:
    dom, rng = _dom_rng(A)
    for u in _subidentities(A):
        if dom[u] != u or rng[u] != u:
            return {"u": u}
    return None


def _law_subid_left_associates(A: AtomStructure) -> Witness:
    C = A.comp_table
    for u in _subidentities(A):
        cu = C[u]
        for x in _els(A):
            cux, cx = C[cu[x]], C[x]
            for y in _els(A):
                if cux[y] != cu[cx[y]]:
                    return {"u": u, "x": x, "y": y}
    return None


def _law_subid_middle_associates(A: AtomStructure) -> Witness:
    C = A.comp_table
    for u in _subidentities(A):
        cu = C[u]
        for x in _els(A):
            cx = C[x]
            cxu = C[cx[u]]
            for y in _els(A):
                lhs = cxu[y]
                rhs = cx[cu[y]]
                if lhs | rhs != rhs:
                    return {"u": u, "x": x, "y": y}
    return None


def _law_subid_merge(A: AtomStructure) -> Witness:
    C = A.comp_table
    subs = _subidentities(A)
    for u in subs:
        for v in subs:
            cv, cuv = C[v], C[u & v]
            for x in _els(A):
                cx = C[x]
                cxu = C[cx[u]]
                for y in _els(A):
                    lhs = cxu[cv[y]]
                    rhs = cx[cuv[y]]
                    if lhs | rhs != rhs:
                        return {"u": u, "v": v, "x": x, "y": y}
    return None


def _law_atom_dom_rng_atoms(A: AtomStructure) -> Witness:
    dom, rng = _dom_rng(A)
    for x in _atoms(A):
        if bin(dom[x]).count("1") != 1 or bin(rng[x]).count("1") != 1:
            return {"x": x}
    return None


def _law_range_meets_domain(A: AtomStructure) -> Witness:
    # atoms x, y with x;y != 0  imply  rng x = dom y
    C = A.comp_table
    dom, rng = _dom_rng(A)
    for x in _atoms(A):
        for y in _atoms(A):
            if C[x][y] and rng[x] != dom[y]:
                return {"x": x, "y": y}
    return None


def _law_subid_forces_domain(A: AtomStructure) -> Witness:
    # identity atom u and atom x with u;x != 0  imply  u = dom x
    C = A.comp_table
    dom, _ = _dom_rng(A)
    for ui in iter_bits(A.identity):
        u = 1 << ui
        for x in _atoms(A):
            if C[u][x] and u != dom[x]:
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
    # Every composition law reads A.comp_table; building it first applies
    # its atom guard before any 4**n sweep starts.
    A.comp_table
    results = []
    for law in LAWS:
        w = law.check(A)
        results.append(CheckResult(law.name, w is None, str(w or "")))
    return tuple(results)
