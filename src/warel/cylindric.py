"""Complex algebras of suitable structures and their set-algebra form.

The complex algebra Cm S lives on the powerset of the carrier (bitmasks
here), and its operations are the structure's own: the cylindrification
c_k is ``S.t_star(k, .)``, which saturates a set under the k-th
equivalence (memoised per coordinate on the structure), and the
diagonal constant d_kl is the distinguished subset ``S.e_masks[k][l]``.
Each check binds ``c, d = S.t_star, S.e_masks``.  Over a carrier built
from a WA atom structure this algebra satisfies the three-dimensional
cylindric axioms with commutativity of cylindrifications weakened to
its diagonal-guarded form, plus the binary merry-go-round substitution
identities.

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
isomorphism up to the frontier.  Its lines are decided on signature
groups of triples; cylindrification is exact over every singleton of
the carrier, decided per group by a lemma, with no loop over them.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations
from typing import NamedTuple

from .core import CheckResult
from .suitable import COORDS, SuitableStructure, needs_axiom_i
from .trails import BoundedUniverse


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
    additive sides, is evaluated over ``singles`` and the pairs k < l
    (k = l is trivial, and (l, k) restates (k, l)) and reported as a
    verdict line but never asserted.  On a misshapen structure
    (``S.misshapen``) every line, the verdict included, fails with
    ``needs axiom (i)``, as (iii)-(v) do in
    :func:`warel.suitable.check_suitable`.
    """
    if S.misshapen:
        return needs_axiom_i((
            "boolean-part", "cyl-zero", "cyl-increasing", "cyl-meet-exchange",
            "diag-diagonal-full", "diag-composition", "diag-rigidity",
            "guarded-commutativity", "full-commutativity-verdict",
        ))
    c, d = S.t_star, S.e_masks
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
            if c(l, c(k, x)) & d[l][m] & ~c(k, c(l, x))
        ),
        None,
    )
    out.append(CheckResult("guarded-commutativity", bad is None, str(bad or "")))

    commutes = all(
        c(k, c(l, x)) == c(l, c(k, x)) for k, l in combinations(COORDS, 2) for x in singles
    )
    out.append(
        CheckResult(
            "full-commutativity-verdict",
            True,
            "commutes" if commutes else "does not commute",
        )
    )
    return tuple(out)


def _mgr_side(S: SuitableStructure, order: tuple[int, int, int], x: int) -> int:
    c, d = S.t_star, S.e_masks
    k, l, m = order
    inner = d[m][k] & c(k, x)
    inner = d[l][m] & c(m, inner)
    inner = d[k][l] & c(l, inner)
    return c(k, inner)


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
    skipped.  On a misshapen structure every line, ``mgr3`` included,
    fails with ``needs axiom (i)``, as in :func:`check_na3`.
    """
    if S.misshapen:
        return needs_axiom_i(("mgr2", "mgr2-featured-instance", "mgr3"))
    singles = [1 << i for i in range(S.size)]
    out: list[CheckResult] = []
    bad = next(
        (
            (k, l, m, x)
            for k, l, m in permutations(COORDS)
            for x in singles
            if _mgr_side(S, (k, l, m), x) != _mgr_side(S, (k, m, l), x)
        ),
        None,
    )
    out.append(CheckResult("mgr2", bad is None, str(bad or "")))

    if S.algebra is None:
        out.append(CheckResult("mgr2-featured-instance", True, "skipped, no source algebra"))
    else:
        # the carrier mask of each last coordinate
        block: dict[int, int] = {}
        for i, t in enumerate(S.elements):
            block[t[2]] = block.get(t[2], 0) | 1 << i
        bad = None
        for i, t in enumerate(S.elements):
            if not 0 <= t[2] < S.algebra.atom_count:
                bad = t  # no converse block to hit
                break
            lhs = _mgr_side(S, (2, 0, 1), 1 << i)
            rhs = _mgr_side(S, (2, 1, 0), 1 << i)
            expect = block.get(S.algebra.converse[t[2]], 0)
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
    """The six singleton identities: cutting the saturation c_k of a
    single carrier element with the diagonal d_kl picks out exactly one
    triple, forced by the element's atom at coordinate k.  A table row
    is an identity's name, the (k, l) of its d_kl, the k of its c_k and
    the triple forced by each atom.  Exact: each identity is checked on
    every carrier element; an element naming no atom at coordinate k
    fails it and is the witness.  On a misshapen structure every line
    fails with ``needs axiom (i)``, as in :func:`check_na3`."""
    if S.algebra is None:
        raise ValueError("needs the source algebra")
    A = S.algebra
    c, d, conv = S.t_star, S.e_masks, A.converse
    dom = [m.bit_length() - 1 for m in A.atom_domains]
    rng = [m.bit_length() - 1 for m in A.atom_ranges]
    atoms = range(A.atom_count)
    dom_loops, rng_loops = [(a, a, dom[a]) for a in atoms], [(rng[a], a, a) for a in atoms]
    table = (
        ("i", (1, 0), 0, dom_loops),
        ("ii", (0, 1), 1, dom_loops),
        ("iii", (1, 2), 2, rng_loops),
        ("iv", (2, 1), 1, rng_loops),
        ("v", (0, 2), 2, [(conv[a], dom[a], a) for a in atoms]),
        ("vi", (2, 0), 0, [(a, rng[a], conv[a]) for a in atoms]),
    )
    names = tuple(f"singleton-identity-{row[0]}" for row in table)
    if S.misshapen:
        return needs_axiom_i(names)
    out = []
    for name, (_, (k, l), ck, forced) in zip(names, table):
        bad = None
        for i, t in enumerate(S.elements):
            if not 0 <= t[ck] < A.atom_count:
                bad = t
                break
            got = d[k][l] & c(ck, 1 << i)
            want = forced[t[ck]]
            j = S.index.get(want)
            if j is None or got != 1 << j:
                bad = (t, got, want)
                break
        out.append(CheckResult(name, bad is None, str(bad or "")))
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
    not a mask over the triples per block.  A block of the points x, y
    is keyed by the int ``x * N + y``, N one more than every pid of a
    triple, so each key is a distinct int and no pair is built."""
    triples = uni.triples
    bits = {t: 1 << t for t in range(S.size)}
    N = 1 + max(chain.from_iterable(triples), default=0)
    b0: dict[int, int] = {}
    b1: dict[int, int] = {}
    b2: dict[int, int] = {}
    for (a, b, c), info in triples.items():
        bit = bits.get(info.end, 0)
        aN, bN = a * N, b * N
        b0[bN + c] = b0.get(bN + c, 0) | bit
        b1[aN + c] = b1.get(aN + c, 0) | bit
        b2[aN + b] = b2.get(aN + b, 0) | bit
    counts: dict[tuple, int] = {}
    bound = uni.bound
    for (a, b, c), info in triples.items():
        aN = a * N
        # frontier as in TripleInfo.is_frontier
        key = (
            info.end, info.min_length >= bound, b0[b * N + c], b1[aN + c], b2[aN + b], a == b, a == c, b == c
        )
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
    reachable triple t of signature group g,

    - t lies in ``image(c_k x)`` exactly when its end lies in
      ``c(k, x)``.  For a singleton x that is when x lies in
      ``c(k, g.bit)``: the k-blocks partition the carrier, so sharing
      one with the end is symmetric; an end outside the carrier has
      bit 0, lies in no ``c(k, x)``, and ``c(k, 0) = 0``.
    - t lies in the relativized ``c_k(image x)`` exactly when its
      k-block holds a triple with end in x, that is when
      ``g.blocks[k]``, the end mask of t's k-block, meets x;
    - t lies in ``image(d_kl)`` exactly when its end lies in
      ``e_masks[k][l]``, and in the relativized d_kl exactly when
      t_k == t_l.

    These conditions are constant on a group, so each line is a pass
    over the groups and an exclusion count a sum of group sizes.  In
    particular the singletons that g misses inward (in the relativized
    cylinder, not in the image of the cylinder) are the bits of
    ``g.blocks[k] & ~c(k, g.bit)``, and those it misses outward the
    bits of ``c(k, g.bit) & ~g.blocks[k]``.

    Quantifier ranges:

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
    - ``cylindrification-nonfrontier``: exact over every singleton of
      the carrier, decided per group by the lemma, one pass over the
      groups per k; singleton-decided, both sides being joins over the
      bits of x.  An outward miss at a frontier group is excluded and
      counted once per triple; at any other group it fails the line.

    A failing line names its first failing instance in loop order; the
    cylindrification line's is the first k with a miss, then its
    lowest missed x, inward if some group misses x inward.
    """
    c, d = S.t_star, S.e_masks
    groups = _triple_groups(S, uni)
    out: list[CheckResult] = []

    ends = {g.bit for g in groups}
    covered, outside = sum(ends), 0 in ends  # distinct powers of two: the sum is the join
    out.append(CheckResult("orbit-atoms-disjoint-nonempty", covered == S.full_mask and not outside))

    out.append(CheckResult("boolean-exact", not outside))

    bad = next(
        ((k, l) for k in COORDS for l in COORDS
         if any(bool(d[k][l] & g.bit) != g.diag[k][l] for g in groups)),
        None,
    )
    out.append(CheckResult("diagonal-exact", bad is None, str(bad or "")))

    bad = None
    excluded = 0
    for k in COORDS:
        inward = outward = 0
        for g, cnt in groups.items():
            cg, block = c(k, g.bit), g.blocks[k]
            inward |= block & ~cg
            if g.frontier:
                excluded += cnt * (cg & ~block).bit_count()
            else:
                outward |= cg & ~block
        if missed := inward | outward:
            x = missed & -missed
            bad = ("inward" if inward & x else "outward", k, x)
            break
    out.append(
        CheckResult(
            "cylindrification-nonfrontier",
            bad is None,
            f"frontier exclusions {excluded}" if bad is None else str(bad),
        )
    )
    return tuple(out)
