"""Complex algebras of suitable structures and their set-algebra form.

The complex algebra lives on the powerset of the carrier (bitmasks
here): cylindrification along coordinate k saturates a set under the
k-th equivalence (``SuitableStructure.t_star``, memoised per coordinate
on the structure), and the diagonal constants are the distinguished
subsets.  Over a carrier built from a WA atom structure this algebra
satisfies the three-dimensional cylindric axioms with commutativity of
cylindrifications weakened to its diagonal-guarded form, plus the
binary merry-go-round substitution identities.

Each check states its quantifier range.  Lemma (Jonsson and Tarski):
``t_star(k, x)`` is the join of the k-blocks that x meets, so
cylindrification is completely additive, c_k(x + y) = c_k x + c_k y and
c_k 0 = 0.  An equation whose sides are built from a set variable by
cylindrifications, joins and meets with constants is then additive in
that variable, and an inequation with an additive left side and a
monotone right side is decided the same way: each holds at 0, where
its left side is 0, and a failure at a union of singletons is a
failure at one of them.  Such axioms run over the carrier's singletons
alone (singleton-decided), so the first failing instance in loop order
is the one a loop over all subsets, singletons first, would name.
Axioms in the diagonal constants alone are exact, as are the singleton
identities of :func:`check_functions`, which range over the whole
carrier.

The bounded set-algebra form relativizes the full algebra on triples
of universe points to the reachable triple set; the map sending a
carrier subset to the union of its orbit sets is verified to be an
isomorphism up to the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import NamedTuple

from .core import CheckResult
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


def check_na3(S: SuitableStructure) -> tuple[CheckResult, ...]:
    """Cylindric axioms with guarded commutativity.

    ``singles`` is every singleton of the carrier.  Quantifier ranges,
    by the additivity lemma of the module docstring:

    - ``boolean-part``: structural, the carrier's powerset.
    - ``cyl-zero``, c_k 0 = 0: decided by its lemma, t_star(k, 0) being
      an empty join.
    - ``cyl-increasing``, x <= c_k x: decided by its lemma.  By suitable
      axiom (i) every element has a k-key, so it lies in its own k-block.
    - ``cyl-meet-exchange``, c_k(x . c_k y) = c_k x . c_k y: decided by
      its lemma.  c_k y is a join of k-blocks, so both sides join the
      k-blocks that x meets inside c_k y, the blocks being disjoint.
    - ``diag-diagonal-full``, ``diag-composition`` and ``diag-rigidity``
      (C5-C7): exact.  In Cm S, d_kl is E(k, l) and c_k is
      ``S.t_star(k, .)``, so C5-C7 are the suitable axioms (iii)-(v)
      restated (the lemma of :func:`warel.suitable.check_suitable`), and
      the lines read ``S.diagonal_failure``, ``S.saturation_failure``
      and ``S.rigidity_failure``.  C7 fails at a singleton x exactly when
      x holds an element i of d_kl that shares its k-block with another,
      so its witness is (k, l, 1 << i).
    - ``guarded-commutativity``, c_l c_k x . d_lm <= c_k c_l x: x over
      ``singles``; singleton-decided.

    A failing axiom names its first failing instance in loop order.
    The full commutativity of cylindrifications, an equation of
    additive sides, is evaluated over ``singles`` and reported as a
    verdict line but never asserted.
    """
    cm = ComplexAlgebra(S)
    singles = [1 << i for i in range(S.size)]
    out: list[CheckResult] = []

    out.append(CheckResult("boolean-part", True, "powerset algebra"))
    out.append(CheckResult("cyl-zero", True))
    out.append(CheckResult("cyl-increasing", True))
    out.append(CheckResult("cyl-meet-exchange", True))

    out.append(CheckResult("diag-diagonal-full", S.diagonal_failure is None))

    bad = S.saturation_failure
    out.append(CheckResult("diag-composition", bad is None, str(bad or "")))

    bad = S.rigidity_failure
    witness = "" if bad is None else str((bad[0], bad[1], 1 << bad[2]))
    out.append(CheckResult("diag-rigidity", bad is None, witness))

    bad = next(
        (
            (k, l, x)
            for k, l, m in permutations(COORDS)
            for x in singles
            if cm.cyl(l, cm.cyl(k, x)) & cm.diag(l, m) & ~cm.cyl(k, cm.cyl(l, x))
        ),
        None,
    )
    out.append(CheckResult("guarded-commutativity", bad is None, str(bad or "")))

    commutes = all(
        cm.cyl(k, cm.cyl(l, x)) == cm.cyl(l, cm.cyl(k, x))
        for k in COORDS
        for l in COORDS
        for x in singles
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


def check_mgr2(S: SuitableStructure) -> tuple[CheckResult, ...]:
    """Binary merry-go-round identities over the complex algebra.

    For each arrangement (k, l, m) of the coordinates the two
    substitution chains around the cylindrification agree.  ``mgr2``
    ranges x over every singleton of the carrier; each chain is a
    composite of cylindrifications and meets with constants, hence
    additive, so the singletons decide it (the additivity lemma of the
    module docstring).  ``mgr2-featured-instance`` is exact over the
    carrier's singletons.  The ternary variants need four distinct
    indices and are vacuous in dimension three, so they are reported as
    skipped.
    """
    cm = ComplexAlgebra(S)
    singles = [1 << i for i in range(S.size)]
    out: list[CheckResult] = []
    bad = next(
        (
            (k, l, m, x)
            for k, l, m in permutations(COORDS)
            for x in singles
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
            if not 0 <= t[2] < S.algebra.atom_count:
                bad = t  # no converse block to hit
                break
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
    element; ``spec`` forces its triple from coordinate ``ck``, so an
    element naming no atom there fails it and is the witness."""
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
            if not 0 <= t[ck] < A.atom_count:
                bad = t
                break
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
# Bounded relativized set algebra, decided on triple signatures


class _Group(NamedTuple):
    """A signature shared by some reachable triples: ``bit`` is
    ``1 << end`` for the carrier element their trails end at (0 for an
    end outside the carrier), ``blocks[k]`` the carrier mask of the ends
    in their k-block (the reachable triples that agree with them off
    coordinate k), ``diag[k][l]`` whether coordinates k and l agree."""

    bit: int
    frontier: bool
    blocks: tuple[int, int, int]
    diag: tuple[tuple[bool, bool, bool], ...]


def _triple_groups(S: SuitableStructure, uni: BoundedUniverse) -> dict[_Group, int]:
    """The reachable triples counted by signature.  One pass ORs each
    triple's end bit into its three blocks, each keyed by the two
    off-k points; a second reads every triple's three block masks.
    Memory is one mask per block and one entry per distinct signature,
    not a mask over the triples per block."""
    bits = {t: 1 << t for t in range(S.size)}
    b0: dict[tuple[int, int], int] = {}
    b1: dict[tuple[int, int], int] = {}
    b2: dict[tuple[int, int], int] = {}
    for (a, b, c), info in uni.triples.items():
        bit = bits.get(info.end, 0)
        b0[b, c] = b0.get((b, c), 0) | bit
        b1[a, c] = b1.get((a, c), 0) | bit
        b2[a, b] = b2.get((a, b), 0) | bit
    counts: dict[tuple, int] = {}
    bound = uni.bound
    for (a, b, c), info in uni.triples.items():
        # frontier as in TripleInfo.is_frontier
        key = (info.end, info.min_length >= bound, b0[b, c], b1[a, c], b2[a, b], a == b, a == c, b == c)
        counts[key] = counts.get(key, 0) + 1
    return {
        _Group(bits.get(end, 0), fr, (m0, m1, m2), ((True, d01, d02), (d01, True, d12), (d02, d12, True))): n
        for (end, fr, m0, m1, m2, d01, d02, d12), n in counts.items()
    }


def check_orbit_partition(uni: BoundedUniverse) -> CheckResult:
    """The orbits, the reachable triples grouped by the carrier element
    their trails end at, partition the triples.

    Exact, decided by its lemma: ``TripleInfo.end`` is a function of
    the triple (``build_universe`` refuses a triple reached from two
    ends), so grouping by end files each triple under exactly one
    orbit, and the orbits always partition the triples."""
    return CheckResult("orbit-partition", True, f"{len(uni.triples)} triples")


def check_complex_vs_relativized(
    S: SuitableStructure,
    uni: BoundedUniverse,
) -> tuple[CheckResult, ...]:
    """The carrier-subset-to-orbit-union map is injective on singletons,
    Boolean and diagonal exact, and commutes with cylindrification on
    non-frontier data (the inward direction is exact; the outward
    witness needs one step of headroom).

    The map sends a carrier subset x to ``image(x)``, the reachable
    triples whose end lies in x; the relativized algebra cylindrifies
    a set of triples to the union of the k-blocks it meets.  Every line
    is decided on the triples' signatures (``_triple_groups``), never
    on a mask over the triples.  Lemma: for a carrier subset x and a
    reachable triple t,

    - t lies in ``image(c_k x)`` exactly when its end lies in
      ``cm.cyl(k, x)``, one memoised call per (k, x);
    - t lies in the relativized ``c_k(image x)`` exactly when its
      k-block holds a triple with end in x, that is when the end mask
      of t's k-block meets x;
    - t lies in ``image(d_kl)`` exactly when its end lies in
      ``e_masks[k][l]``, and in the relativized d_kl exactly when
      t_k == t_l.

    These conditions are constant on a signature group, so each line is
    a pass over the groups and an exclusion count a sum of group sizes.

    ``singles`` is every singleton of the carrier.  Quantifier ranges:

    - ``orbit-atoms-disjoint-nonempty``: exact over the carrier.  The
      orbit atoms are disjoint by construction, each triple having one
      end; the line asks that every carrier element is some triple's
      end and that every triple's end lies in the carrier.
    - ``boolean-exact``: exact, decided by its lemma on ``outside``.
      An image is named by the carrier mask of the ends it covers,
      ``image(x) = x & covered`` with ``covered`` inside the carrier, so
      it preserves joins for every x and y.  The triples in no image
      are those whose end lies outside the carrier, so it preserves
      complements exactly when there are none.
    - ``diagonal-exact``: exact over the nine (k, l).
    - ``cylindrification-nonfrontier``: x over ``singles``;
      singleton-decided, since both sides are joins over the bits of
      x: an inward or outward miss at x is one at a singleton below x.
      Outward misses at frontier triples are excluded and counted, over
      the singletons.

    A failing line names its first failing instance in loop order.
    """
    cm = ComplexAlgebra(S)
    groups = _triple_groups(S, uni)
    out: list[CheckResult] = []

    ends = {g.bit for g in groups}
    covered, outside = sum(ends), 0 in ends  # distinct powers of two: the sum is the join
    out.append(CheckResult("orbit-atoms-disjoint-nonempty", covered == cm.full and not outside))

    out.append(CheckResult("boolean-exact", not outside))

    bad = next(
        ((k, l) for k in COORDS for l in COORDS
         if any(bool(cm.diag(k, l) & g.bit) != g.diag[k][l] for g in groups)),
        None,
    )
    out.append(CheckResult("diagonal-exact", bad is None, str(bad or "")))

    bad = None
    excluded = 0
    singles = [1 << i for i in range(S.size)]
    for k in COORDS:
        rows: dict[tuple[int, int, bool], int] = {}
        for g, cnt in groups.items():
            key = (g.bit, g.blocks[k], g.frontier)
            rows[key] = rows.get(key, 0) + cnt
        for x in singles:
            cx = cm.cyl(k, x)
            outward = False
            missed = 0
            for (bit, block, frontier), cnt in rows.items():
                if block & x:
                    if not cx & bit:
                        bad = ("inward", k, x)
                        break
                elif cx & bit:
                    if not frontier:
                        outward = True
                    missed += cnt
            if bad is None and outward:
                bad = ("outward", k, x)
            if bad:
                break
            excluded += missed
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
