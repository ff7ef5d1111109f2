"""Complex algebras of suitable structures and their set-algebra form.

The complex algebra lives on the powerset of the carrier (bitmasks
here): cylindrification along coordinate k saturates a set under the
k-th equivalence (``SuitableStructure.t_star``, memoised per coordinate
on the structure), and the diagonal constants are the distinguished
subsets.  Over a carrier built from a WA atom structure this algebra
satisfies the three-dimensional cylindric axioms with commutativity of
cylindrifications weakened to its diagonal-guarded form, plus the
binary merry-go-round substitution identities.

Each check states its quantifier range.  Cylindrification is a join
over blocks, so an axiom whose sides are additive in a set variable is
decided by the singletons of that variable; such axioms run over every
singleton and then over seeded random subsets as a cross-check
(singleton-decided).  Axioms in the diagonal constants alone are exact,
as are the singleton identities of :func:`check_functions`, which range
over the whole carrier.

The bounded set-algebra form relativizes the full algebra on triples
of universe points to the reachable triple set; the map sending a
carrier subset to the union of its orbit sets is verified to be an
isomorphism up to the frontier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Optional

from .core import CheckResult, iter_bits
from .suitable import COORDS, SuitableStructure
from .trails import BoundedUniverse


@dataclass(frozen=True)
class ComplexAlgebra:
    S: SuitableStructure

    @cached_property
    def full(self) -> int:
        return self.S.full_mask

    def cyl(self, k: int, x: int) -> int:
        return self.S.t_star(k, x)

    def diag(self, k: int, l: int) -> int:
        return self.S.e_masks[k][l]

    def compl(self, x: int) -> int:
        return self.full & ~x

    def subst(self, k: int, l: int, x: int) -> int:
        """Substitution operator: cyl over k of the (k, l) diagonal cut."""
        if k == l:
            return x
        return self.cyl(k, self.diag(k, l) & x)


def _sample_subsets(full: int, rng: random.Random, count: int) -> list[int]:
    out = [0, full]
    for _ in range(count):
        out.append(rng.randrange(full + 1))
    return out


def _first_meet_exchange_failure(
    cm: ComplexAlgebra, sampled: list[int]
) -> Optional[tuple[int, int, int]]:
    """The first (k, x, y) in loop order, x and y over ``sampled``,
    with c_k(x . c_k y) != c_k x . c_k y.  Each x is tested once per
    distinct c_k y; the failing y reported is the first whose
    cylinder value fails."""
    for k in COORDS:
        sampled_cyl = [cm.cyl(k, y) for y in sampled]
        distinct = set(sampled_cyl)
        for x in sampled:
            cx = cm.cyl(k, x)
            failing = {cy for cy in distinct if cm.cyl(k, x & cy) != cx & cy}
            if failing:
                y = next(y for y, cy in zip(sampled, sampled_cyl) if cy in failing)
                return (k, x, y)
    return None


def check_na3(
    S: SuitableStructure, seed: int = 0, samples: int = 64
) -> tuple[CheckResult, ...]:
    """Cylindric axioms with guarded commutativity.

    ``subsets`` is every singleton of the carrier, then 0, the full
    set and ``samples`` seeded random subsets.  Quantifier ranges:

    - ``boolean-part``: structural, the carrier's powerset.
    - ``cyl-zero``: exact, c_k 0 = 0 for each k.
    - ``cyl-increasing``: x over ``subsets``; singleton-decided, since
      x <= c_k x is additive in x.
    - ``cyl-meet-exchange``, c_k(x . c_k y) = c_k x . c_k y: x and y
      over all singleton pairs, which decide it (both sides are
      additive in x and in y), then over all pairs of the sampled
      subsets.  A sampled instance depends on y only through c_k y,
      so it is decided once per distinct value of c_k y; the witness
      is still the first failing (k, x, y) in loop order.
    - ``diag-diagonal-full`` and ``diag-composition``: exact, they
      name only the diagonal constants.
    - ``diag-rigidity``: x over ``subsets``; decided by singletons
      outright (no two elements of d_kl share a k-block).
    - ``guarded-commutativity``: x over ``subsets``; singleton-decided.

    A failing axiom names its first failing instance in loop order.
    The full commutativity of cylindrifications is evaluated over
    ``subsets`` and reported as a verdict line but never asserted.
    """
    cm = ComplexAlgebra(S)
    rng = random.Random(seed)
    singles = [1 << i for i in range(S.size)]
    subsets = singles + _sample_subsets(cm.full, rng, samples)
    out: list[CheckResult] = []

    out.append(CheckResult("boolean-part", True, "powerset algebra"))

    ok = all(cm.cyl(k, 0) == 0 for k in COORDS)
    out.append(CheckResult("cyl-zero", ok))

    bad = next(
        (
            (k, x)
            for k in COORDS
            for x in subsets
            if x | cm.cyl(k, x) != cm.cyl(k, x)
        ),
        None,
    )
    out.append(CheckResult("cyl-increasing", bad is None, str(bad or "")))

    # For a singleton x, x & cyl(k, y) is x or 0, so every term of the
    # singleton instances is read off the singletons' cylindrifications.
    single_cyl = [[cm.cyl(k, x) for x in singles] for k in COORDS]
    bad = next(
        (
            (k, x, y)
            for k in COORDS
            for x, cx in zip(singles, single_cyl[k])
            for y, cy in zip(singles, single_cyl[k])
            if (cx if x & cy else 0) != cx & cy
        ),
        None,
    )
    if bad is None:
        bad = _first_meet_exchange_failure(cm, subsets[len(singles) :])
    out.append(CheckResult("cyl-meet-exchange", bad is None, str(bad or "")))

    ok = all(cm.diag(k, k) == cm.full for k in COORDS)
    out.append(CheckResult("diag-diagonal-full", ok))

    bad = next(
        (
            (k, l, m)
            for k in COORDS
            for l in COORDS
            for m in COORDS
            if m != k
            and m != l
            and cm.diag(k, l) != cm.cyl(m, cm.diag(k, m) & cm.diag(m, l))
        ),
        None,
    )
    out.append(CheckResult("diag-composition", bad is None, str(bad or "")))

    bad = next(
        (
            (k, l, x)
            for k, l, _ in permutations(COORDS)
            for x in subsets
            if cm.cyl(k, cm.diag(k, l) & x) & cm.cyl(k, cm.diag(k, l) & cm.compl(x))
        ),
        None,
    )
    out.append(CheckResult("diag-rigidity", bad is None, str(bad or "")))

    bad = next(
        (
            (k, l, x)
            for k, l, m in permutations(COORDS)
            for x in subsets
            if cm.cyl(l, cm.cyl(k, x)) & cm.diag(l, m) & ~cm.cyl(k, cm.cyl(l, x))
        ),
        None,
    )
    out.append(CheckResult("guarded-commutativity", bad is None, str(bad or "")))

    commutes = all(
        cm.cyl(k, cm.cyl(l, x)) == cm.cyl(l, cm.cyl(k, x))
        for k in COORDS
        for l in COORDS
        for x in subsets
    )
    out.append(
        CheckResult(
            "full-commutativity-verdict",
            True,
            "commutes" if commutes else "does not commute",
        )
    )
    return tuple(out)


def _mgr_side(cm: ComplexAlgebra, order: tuple[int, int, int], x: int) -> int:
    k, l, m = order
    inner = cm.diag(m, k) & cm.cyl(k, x)
    inner = cm.diag(l, m) & cm.cyl(m, inner)
    inner = cm.diag(k, l) & cm.cyl(l, inner)
    return cm.cyl(k, inner)


def check_mgr2(
    S: SuitableStructure, seed: int = 0, samples: int = 64
) -> tuple[CheckResult, ...]:
    """Binary merry-go-round identities over the complex algebra.

    For each arrangement (k, l, m) of the coordinates the two
    substitution chains around the cylindrification agree.  ``mgr2``
    ranges x over every singleton, then 0, the full set and
    ``samples`` seeded random subsets; each chain is a composite of
    cylindrifications and meets with constants, hence additive, so the
    singletons decide it and the samples cross-check.
    ``mgr2-featured-instance`` is exact over the carrier's singletons.
    The ternary variants need four distinct indices and are vacuous in
    dimension three, so they are reported as skipped.
    """
    cm = ComplexAlgebra(S)
    rng = random.Random(seed)
    singles = [1 << i for i in range(S.size)]
    subsets = singles + _sample_subsets(cm.full, rng, samples)
    out: list[CheckResult] = []
    bad = next(
        (
            (k, l, m, x)
            for k, l, m in permutations(COORDS)
            for x in subsets
            if _mgr_side(cm, (k, l, m), x) != _mgr_side(cm, (k, m, l), x)
        ),
        None,
    )
    out.append(CheckResult("mgr2", bad is None, str(bad or "")))

    if S.algebra is None:
        out.append(CheckResult("mgr2-featured-instance", True, "skipped, no source algebra"))
    else:
        bad = None
        for i, t in enumerate(S.elements):
            lhs = _mgr_side(cm, (2, 0, 1), 1 << i)
            rhs = _mgr_side(cm, (2, 1, 0), 1 << i)
            conv2 = S.algebra.converse[t[2]]
            expect = 0
            for j, s in enumerate(S.elements):
                if s[2] == conv2:
                    expect |= 1 << j
            if lhs != expect or rhs != expect:
                bad = (t, lhs, rhs, expect)
                break
        out.append(
            CheckResult(
                "mgr2-featured-instance",
                bad is None,
                "both chains hit the converse block" if bad is None else str(bad),
            )
        )
    out.append(CheckResult("mgr3", True, "vacuous in dimension 3, skipped"))
    return tuple(out)


def check_functions(S: SuitableStructure) -> tuple[CheckResult, ...]:
    """The six singleton identities: cutting the saturation of a single
    carrier element with the right diagonal picks out exactly one
    forced triple.  Exact: each identity is checked on every carrier
    element."""
    if S.algebra is None:
        raise ValueError("needs the source algebra")
    A = S.algebra
    cm = ComplexAlgebra(S)
    bit = lambda m: m.bit_length() - 1

    def forced(spec: str, t: tuple[int, int, int]) -> tuple[int, int, int]:
        if spec == "i":
            return (t[0], t[0], bit(A.dom_atom(t[0])))
        if spec == "ii":
            return (t[1], t[1], bit(A.dom_atom(t[1])))
        if spec == "iii":
            return (bit(A.rng_atom(t[2])), t[2], t[2])
        if spec == "iv":
            return (bit(A.rng_atom(t[1])), t[1], t[1])
        if spec == "v":
            return (A.converse[t[2]], bit(A.dom_atom(t[2])), t[2])
        return (t[0], bit(A.rng_atom(t[0])), A.converse[t[0]])

    cases = [
        ("i", 1, 0, 0),
        ("ii", 0, 1, 1),
        ("iii", 1, 2, 2),
        ("iv", 2, 1, 1),
        ("v", 0, 2, 2),
        ("vi", 2, 0, 0),
    ]
    out = []
    for spec, dk, dl, ck in cases:
        bad = None
        for i, t in enumerate(S.elements):
            got = cm.diag(dk, dl) & cm.cyl(ck, 1 << i)
            want_triple = forced(spec, t)
            j = S.index.get(want_triple)
            if j is None or got != 1 << j:
                bad = (t, got, want_triple)
                break
        out.append(
            CheckResult(
                f"singleton-identity-{spec}",
                bad is None,
                str(bad or ""),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Bounded relativized set algebra


@dataclass
class RelativizedSetAlgebra:
    """The algebra of subsets of the reachable triple set, with
    relativized cylindrifications and diagonal constants."""

    universe: BoundedUniverse
    triples: tuple[tuple[int, int, int], ...]

    @cached_property
    def index(self) -> dict[tuple[int, int, int], int]:
        return {t: i for i, t in enumerate(self.triples)}

    @cached_property
    def full(self) -> int:
        return (1 << len(self.triples)) - 1

    @cached_property
    def _cyl_blocks(self) -> tuple[dict[tuple[int, int], int], ...]:
        # for coordinate k, group triples by the two off-k coordinates
        out: tuple[dict[tuple[int, int], int], ...] = ({}, {}, {})
        d0, d1, d2 = out
        for i, (a, b, c) in enumerate(self.triples):
            bit = 1 << i
            d0[b, c] = d0.get((b, c), 0) | bit
            d1[a, c] = d1.get((a, c), 0) | bit
            d2[a, b] = d2.get((a, b), 0) | bit
        return out

    def cyl(self, k: int, x: int) -> int:
        acc = 0
        for block in self._cyl_blocks[k].values():
            if x & block:
                acc |= block
        return acc

    @cached_property
    def _diags(self) -> tuple[tuple[int, int, int], ...]:
        d01 = d02 = d12 = 0
        for i, (a, b, c) in enumerate(self.triples):
            bit = 1 << i
            if a == b:
                d01 |= bit
            if a == c:
                d02 |= bit
            if b == c:
                d12 |= bit
        full = self.full
        return ((full, d01, d02), (d01, full, d12), (d02, d12, full))

    def diag(self, k: int, l: int) -> int:
        return self._diags[k][l]

    def atom_mask(self, end: int) -> int:
        acc = 0
        for trip in self.universe.orbit_sets.get(end, ()):
            acc |= 1 << self.index[trip]
        return acc

    def orbit_cyl(self, k: int, end: int) -> int:
        """``cyl(k, atom_mask(end))``: the k-blocks that the orbit of
        carrier element ``end`` meets are the blocks of its own triples,
        so their join is read from each triple's off-k coordinates
        without walking every block of coordinate k."""
        blocks = self._cyl_blocks[k]
        i, j = (c for c in COORDS if c != k)
        acc = 0
        for trip in self.universe.orbit_sets.get(end, ()):
            acc |= blocks[trip[i], trip[j]]
        return acc


def rc_build(uni: BoundedUniverse) -> RelativizedSetAlgebra:
    return RelativizedSetAlgebra(uni, tuple(sorted(uni.triples)))


def check_orbit_partition(uni: BoundedUniverse) -> CheckResult:
    seen: set[tuple[int, int, int]] = set()
    total = 0
    for t, trips in uni.orbit_sets.items():
        total += len(trips)
        seen |= trips
    ok = total == len(uni.triples) and seen == set(uni.triples)
    return CheckResult("orbit-partition", ok, f"{len(uni.triples)} triples")


def check_complex_vs_relativized(
    S: SuitableStructure,
    uni: BoundedUniverse,
    seed: int = 0,
    samples: int = 32,
) -> tuple[CheckResult, ...]:
    """The carrier-subset-to-orbit-union map is injective on singletons,
    Boolean and diagonal exact, and commutes with cylindrification on
    non-frontier data (the inward direction is exact; the outward
    witness needs one step of headroom).

    ``subsets`` is every singleton, then 0, the full set and
    ``samples`` seeded random subsets.  Quantifier ranges:

    - ``orbit-atoms-disjoint-nonempty``: exact over the carrier.
    - ``boolean-exact``: x over ``subsets``, but y only over
      ``subsets[:3]``.  ``image`` is a join by construction, so it
      preserves joins for every x and y, and complements exactly when
      the orbit atoms partition the triples (the line above); this
      line is a cross-check of that construction.
    - ``diagonal-exact``: exact over the nine (k, l).
    - ``cylindrification-nonfrontier``: x over ``subsets``;
      singleton-decided, since both sides are joins over the bits of
      x.  Outward misses at frontier triples are excluded and counted.
    """
    rc = rc_build(uni)
    cm = ComplexAlgebra(S)
    rng = random.Random(seed)
    out: list[CheckResult] = []

    atom_masks = [rc.atom_mask(t) for t in range(S.size)]
    nonempty = all(m for m in atom_masks)
    disjoint = True
    acc = 0
    for m in atom_masks:
        if acc & m:
            disjoint = False
        acc |= m
    out.append(
        CheckResult(
            "orbit-atoms-disjoint-nonempty", nonempty and disjoint and acc == rc.full
        )
    )

    def image(xmask: int) -> int:
        m = 0
        for i in iter_bits(xmask):
            m |= atom_masks[i]
        return m

    subsets = [1 << i for i in range(S.size)] + _sample_subsets(
        cm.full, rng, samples
    )
    ok = all(
        image(cm.compl(x)) == rc.full & ~image(x) and image(x | y) == image(x) | image(y)
        for x in subsets
        for y in subsets[: len(COORDS)]
    )
    out.append(CheckResult("boolean-exact", ok))

    bad = next(
        ((k, l) for k in COORDS for l in COORDS if image(cm.diag(k, l)) != rc.diag(k, l)),
        None,
    )
    out.append(CheckResult("diagonal-exact", bad is None, str(bad or "")))

    frontier = uni.frontier_triples()
    frontier_mask = 0
    for trip in frontier:
        frontier_mask |= 1 << rc.index[trip]
    # rc.cyl is a join over blocks, hence additive: rc.cyl(k, image(x))
    # is the join of the cylindrified orbit masks of the bits of x
    atom_cyl = [[rc.orbit_cyl(k, t) for t in range(S.size)] for k in COORDS]
    bad = None
    excluded = 0
    for k in COORDS:
        for x in subsets:
            lhs = image(cm.cyl(k, x))
            rhs = 0
            for i in iter_bits(x):
                rhs |= atom_cyl[k][i]
            if rhs & ~lhs:
                bad = ("inward", k, x)
                break
            missing = lhs & ~rhs
            if missing & ~frontier_mask:
                bad = ("outward", k, x)
                break
            excluded += bin(missing & frontier_mask).count("1")
        if bad:
            break
    out.append(
        CheckResult(
            "cylindrification-nonfrontier",
            bad is None,
            f"frontier exclusions {excluded}" if bad is None else str(bad),
        )
    )
    return tuple(out)
