"""Three-dimensional suitable structures built from atom structures.

The carrier is the set of atom triples s with s1 <= s2 ; s0.  Three
equivalence relations compare triples coordinatewise, and six
distinguished subsets collect the triples whose remaining coordinate
is an identity atom.  Five axioms connect these; the construction from
a WA atom structure satisfies all of them, and the checker decides
each axiom, exactly or by its lemma, with witnesses on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
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

    # Axioms (iii)-(v), each decided once: the first failing instance in
    # loop order, or None.  check_suitable and check_na3 both read them.

    @cached_property
    def diagonal_failure(self) -> Optional[int]:
        """(iii): the first k whose E(k, k) is not the whole carrier."""
        return next((k for k in COORDS if self.e_masks[k][k] != self.full_mask), None)

    @cached_property
    def saturation_failure(self) -> Optional[tuple[int, int, int]]:
        """(iv): the first (k, l, m), m neither k nor l, with
        E(k, l) != t_star(m, E(k, m) & E(m, l))."""
        e, t = self.e_masks, self.t_star
        return next(
            ((k, l, m) for k in COORDS for l in COORDS for m in COORDS
             if m != k and m != l and e[k][l] != t(m, e[k][m] & e[m][l])),
            None,
        )

    @cached_property
    def rigidity_failure(self) -> Optional[tuple[int, int, int, int]]:
        """(v): the first (k, l, i, j), k != l, with i < j in E(k, l) and
        in one k-block.  A bit walk over the k-blocks: i is the lowest bit
        of any block's part of E(k, l) holding two, j that part's next."""
        for k, l, _ in permutations(COORDS):
            e = self.e_masks[k][l]
            parts = [hit for block in self.blocks[k].values() if (hit := e & block) & (hit - 1)]
            if parts:
                hit = min(parts, key=lambda h: h & -h)
                rest = hit & (hit - 1)
                return (k, l, (hit & -hit).bit_length() - 1, (rest & -rest).bit_length() - 1)
        return None

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
    """The five suitable-structure axioms.

    - (i) ``components-well-typed``: exact.  ``tkey`` has three rows of
      one key per element, and ``e_masks`` is 3x3 with each mask inside
      the carrier.  The lemmas here and in
      :func:`warel.cylindric.check_na3` rest on it.
    - (ii) ``coordinate-equivalences``: decided by its lemma.  By (i)
      each element has one k-key, and equality of keys is an
      equivalence.
    - (iii)-(v): exact.  In the complex algebra Cm S the diagonal
      constant d_kl is E(k, l) and c_k is ``S.t_star(k, .)``, so the
      cylindric diagonal axioms C5-C7 (Henkin, Monk and Tarski,
      *Cylindric Algebras I*, 1971), d_kk = 1, d_kl = c_m(d_km . d_ml)
      and c_k(d_kl . x) . c_k(d_kl . -x) = 0, are (iii)-(v) restated.
      ``check_na3`` reads the same decisions off the structure.
    """
    out: list[CheckResult] = []

    rows = [len(row) for row in S.tkey]
    if rows != [S.size] * 3:
        detail = f"tkey rows hold {rows} keys for {S.size} elements"
    elif [len(row) for row in S.e_masks] != [3] * 3:
        detail = "e_masks is not 3x3"
    else:
        bad = next(((k, l) for k in COORDS for l in COORDS if S.e_masks[k][l] & ~S.full_mask), None)
        detail = "" if bad is None else f"subset {bad} leaves the carrier"
    out.append(CheckResult("components-well-typed", not detail, detail))
    out.append(CheckResult("coordinate-equivalences", True))

    k = S.diagonal_failure
    detail = "" if k is None else f"diagonal subset {k}{k} is not the whole carrier"
    out.append(CheckResult("diagonal-subsets-full", k is None, detail))

    bad = S.saturation_failure
    detail = ""
    if bad is not None:
        k, l, m = bad
        diff = S.e_masks[k][l] ^ S.t_star(m, S.e_masks[k][m] & S.e_masks[m][l])
        detail = f"subset ({k},{l}) via {m}: differs at element {diff.bit_length() - 1}"
    out.append(CheckResult("saturation-identity", bad is None, detail))

    bad = S.rigidity_failure
    detail = ""
    if bad is not None:
        k, l, i, j = bad
        detail = f"elements {i},{j} both in subset ({k},{l}) and {k}-related"
    out.append(CheckResult("subset-rigidity", bad is None, detail))
    return tuple(out)
