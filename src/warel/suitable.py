"""Three-dimensional suitable structures built from atom structures.

The carrier is the set of atom triples s with s1 <= s2 ; s0.  Three
equivalence relations compare triples coordinatewise, and six
distinguished subsets collect the triples whose remaining coordinate
is an identity atom.  Five axioms connect these; the construction from
a WA atom structure satisfies all of them, and the checker verifies
each axiom exhaustively with witnesses on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Optional

from .core import AtomStructure, CheckResult, Triple, classify

COORDS = (0, 1, 2)


def third_coord(k: int, l: int) -> int:
    return 3 - k - l


@dataclass(frozen=True)
class SuitableStructure:
    """Generic carrier + coordinate keys + distinguished subsets.

    ``tkey[k][i]`` is the block key of element i under the k-th
    equivalence; ``e_masks[k][l]`` is a bitmask over element indices.
    Hand-built instances may violate the axioms; ``check_suitable``
    tells.  Instances built by :func:`build_suitable` also carry the
    source algebra and use actual atom triples as elements.
    """

    elements: tuple[Triple, ...]
    tkey: tuple[tuple[Hashable, ...], ...]
    e_masks: tuple[tuple[int, int, int], ...]
    algebra: Optional[AtomStructure] = field(default=None, compare=False)

    @cached_property
    def index(self) -> dict[Triple, int]:
        return {t: i for i, t in enumerate(self.elements)}

    @cached_property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def blocks(self) -> tuple[dict[Hashable, int], ...]:
        """blocks[k][key] = bitmask of elements whose k-key is key."""
        out: list[dict[Hashable, int]] = []
        for k in COORDS:
            d: dict[Hashable, int] = {}
            for i, key in enumerate(self.tkey[k]):
                d[key] = d.get(key, 0) | (1 << i)
            out.append(d)
        return tuple(out)

    @cached_property
    def neighbors(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """neighbors[k][i] = indices j != i in the same k-block."""
        out = []
        for k in COORDS:
            per = []
            for i in range(self.size):
                mask = self.blocks[k][self.tkey[k][i]]
                per.append(tuple(j for j in range(self.size) if j != i and (mask >> j) & 1))
            out.append(tuple(per))
        return tuple(out)

    def related(self, k: int, i: int, j: int) -> bool:
        return self.tkey[k][i] == self.tkey[k][j]

    def in_e(self, i: int, k: int, l: int) -> bool:
        return bool((self.e_masks[k][l] >> i) & 1)

    def swaps(self, i: int, p: int) -> tuple[int, ...]:
        """The indices l != p with i in E(l, p) or E(p, l): the pointer
        swaps licensed at element i."""
        return tuple(
            l for l in COORDS if l != p and (self.in_e(i, l, p) or self.in_e(i, p, l))
        )

    @cached_property
    def least_repoint(self) -> tuple[tuple[int, ...], ...]:
        """least_repoint[i][p]: the least licensed swap of p at i, or -1."""
        return tuple(
            tuple(min(self.swaps(i, p), default=-1) for p in COORDS)
            for i in range(self.size)
        )

    @cached_property
    def least_reachable(self) -> tuple[tuple[int, ...], ...]:
        """least_reachable[i][p]: the least index reachable from p by a
        chain of swaps licensed at i."""
        out = []
        for i in range(self.size):
            row = []
            for p in COORDS:
                reach = {p}
                todo = [p]
                while todo:
                    for l in self.swaps(i, todo.pop()):
                        if l not in reach:
                            reach.add(l)
                            todo.append(l)
                row.append(min(reach))
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def _t_star_memo(self) -> tuple[dict[int, int], ...]:
        return tuple({} for _ in COORDS)

    def t_star(self, k: int, mask: int) -> int:
        """The join of the k-blocks that ``mask`` meets: the k-th
        cylindrification.  Memoised per coordinate, so every complex
        algebra and reduct over this structure shares the results."""
        memo = self._t_star_memo[k]
        try:
            return memo[mask]
        except KeyError:
            pass
        out = 0
        for block in self.blocks[k].values():
            if mask & block:
                out |= block
        memo[mask] = out
        return out


def build_suitable(A: AtomStructure) -> SuitableStructure:
    """Carrier, coordinate equivalences, and identity-coordinate subsets
    from a WA atom structure."""
    report = classify(A)
    if not report.is_wa:
        raise ValueError(
            "suitable structure needs a WA input; failed axioms: "
            + ", ".join(report.failed_names())
        )
    elements = tuple(sorted((y, z, x) for (x, y, z) in A.cycles))
    if len(elements) != len(A.cycles):
        raise AssertionError("carrier size must match the fact count")
    tkey = tuple(tuple(t[k] for t in elements) for k in COORDS)
    masks = [[0, 0, 0] for _ in COORDS]
    for k in COORDS:
        for l in COORDS:
            if k == l:
                masks[k][l] = (1 << len(elements)) - 1
            else:
                m = third_coord(k, l)
                acc = 0
                for i, t in enumerate(elements):
                    if (1 << t[m]) & A.identity:
                        acc |= 1 << i
                masks[k][l] = acc
    return SuitableStructure(
        elements, tkey, tuple(tuple(row) for row in masks), algebra=A
    )


def check_suitable(S: SuitableStructure) -> tuple[CheckResult, ...]:
    """Exhaustive verification of the five suitable-structure axioms."""
    out: list[CheckResult] = []

    # (i) is structural for this representation: tkey/e_masks are total.
    out.append(CheckResult("components-well-typed", True))

    # (ii) coordinate keys induce equivalences: structural as well, but
    # verified explicitly through block membership.
    ok = all(
        S.related(k, i, i)
        and all(
            S.related(k, i, j) == S.related(k, j, i)
            for j in range(S.size)
        )
        for k in COORDS
        for i in range(S.size)
    )
    out.append(CheckResult("coordinate-equivalences", ok))

    detail = ""
    ok = True
    for k in COORDS:
        if S.e_masks[k][k] != S.full_mask:
            ok = False
            detail = f"diagonal subset {k}{k} is not the whole carrier"
            break
    out.append(CheckResult("diagonal-subsets-full", ok, detail))

    detail = ""
    ok = True
    for k in COORDS:
        for l in COORDS:
            for m in COORDS:
                if m == k or m == l:
                    continue
                lhs = S.e_masks[k][l]
                rhs = S.t_star(m, S.e_masks[k][m] & S.e_masks[m][l])
                if lhs != rhs:
                    ok = False
                    diff = (lhs ^ rhs).bit_length() - 1
                    detail = f"subset ({k},{l}) via {m}: differs at element {diff}"
                    break
            if not ok:
                break
        if not ok:
            break
    out.append(CheckResult("saturation-identity", ok, detail))

    detail = ""
    ok = True
    for k in COORDS:
        for l in COORDS:
            if k == l:
                continue
            mask = S.e_masks[k][l]
            for i in range(S.size):
                if not (mask >> i) & 1:
                    continue
                for j in range(i + 1, S.size):
                    if (mask >> j) & 1 and S.related(k, i, j):
                        ok = False
                        detail = f"elements {i},{j} both in subset ({k},{l}) and {k}-related"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    out.append(CheckResult("subset-rigidity", ok, detail))
    return tuple(out)
