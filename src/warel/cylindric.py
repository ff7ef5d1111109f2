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
isomorphism up to the frontier.  Its Boolean and diagonal lines read
the distinct end and diagonal signatures of the triples; cylindrification
is decided over every singleton of the carrier by two lemmas of the
trail walk, with no block of triples built.
"""

from __future__ import annotations

from itertools import combinations, permutations

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
# Bounded relativized set algebra, decided by the walk's lemmas


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
    a set of triples to the union of the k-blocks it meets, a k-block
    being the reachable triples that agree off coordinate k.  A triple
    lies in ``image(d_kl)`` exactly when its end lies in
    ``e_masks[k][l]``, and in the relativized d_kl exactly when
    t_k == t_l.  So the first three lines read only the distinct
    signatures (end, t_0 == t_1, t_0 == t_2, t_1 == t_2) of the triples,
    collected in one pass: at most five per end, and no block.

    The cylindrification line is decided by two lemmas, for a universe
    made by :func:`~warel.trails.build_universe` over a carrier made by
    :func:`~warel.suitable.build_suitable`.  Cylindrification is
    additive on both sides, so singletons x = {e'} decide it.  A triple
    t with end e lies in ``image(c_k x)`` exactly when e' lies in
    ``c(k, 1 << e)``, and in the relativized c_k(image x) exactly when
    its k-block holds a triple that ends at e'.

    - *Inward, the block lemma*: the ends of the triples of one k-block
      lie in one k-block of S.  The triples of a k-block share the
      ordered pair of their points off k, and a triple ending at e gives
      that pair the label e[k] (:func:`~warel.reduct._end_matrix`: the
      pair (1, 2) gets t_0, (0, 2) gets t_1 and (0, 1) gets t_2).  When
      no pair is labelled twice, their ends share the atom at k, their
      k-key on this keyed carrier, so one k-block of S holds them.  By
      the step and locality lemmas of
      :func:`~warel.reduct.build_pair_structure`, no pair is labelled
      twice when no end's matrix has a None loop and no write of the
      pair stage clashes, its base writes first; otherwise that stage
      raises ``ConsistencyError`` later in the same run, which then ends
      with ``represent.internal = fail`` and exit 4.  So no run that
      exits 0 rests on a false premise, and the report keeps its order.
    - *Outward, the k-step lemma*: a non-frontier triple t with end e
      has, for each e' != e in ``c(k, 1 << e)``, a triple in its k-block
      that ends at e'.  t is first reached at its shortest spine, shorter
      than the bound, so the walk extends that spine by a k-step to each
      k-neighbour e' of e, and the step's triple is t with coordinate k
      replaced, ending at e'.  The one step the walk skips, straight
      back along k to the element before e, leads to the parent spine's
      triple, which ends there and of which t is the k-step.

    So the line holds, and what it leaves undecided is the outward
    instances at frontier triples, the excluded ones: each (frontier
    triple t, k, singleton x != {end(t)} inside ``c(k, 1 << end(t))``),
    whether or not it misses.  That count is the sum over ends e of
    ``uni.frontier_ends[e]`` times the sum over k of
    ``|c(k, 1 << e)| - 1``, reported as ``frontier exclusions N``.

    Quantifier ranges:

    - ``orbit-atoms-disjoint-nonempty``: exact over the carrier.  The
      orbit atoms are disjoint by construction, each triple having one
      end; the line asks that every carrier element is some triple's
      end and that every triple's end lies in the carrier.
    - ``boolean-exact``: exact, decided by its lemma on the ends.
      An image is named by the carrier mask of the ends it covers,
      ``image(x) = x & covered`` with ``covered`` inside the carrier, so
      it preserves joins for every x and y.  The triples in no image
      are those whose end lies outside the carrier, so it preserves
      complements exactly when there are none.
    - ``diagonal-exact``: exact over the nine (k, l); the first failing
      (k, l) in loop order is the witness.
    - ``cylindrification-nonfrontier``: decided by the two lemmas over
      every singleton of the carrier, frontier instances excluded.
    """
    c, d = S.t_star, S.e_masks
    carrier = set(range(S.size))
    # per signature: the end, then whether the two coordinates off m
    # agree, indexed by m
    sigs = {(info.end, y == z, x == z, x == y) for (x, y, z), info in uni.triples.items()}
    ends = {end for end, *_ in sigs}
    out = [
        CheckResult("orbit-atoms-disjoint-nonempty", ends == carrier),
        CheckResult("boolean-exact", ends <= carrier),
    ]

    bad = next(
        ((k, l) for k in COORDS for l in COORDS
         if any(bool(end in carrier and d[k][l] >> end & 1) != (k == l or agree[3 - k - l])
                for end, *agree in sigs)),
        None,
    )
    out.append(CheckResult("diagonal-exact", bad is None, str(bad or "")))

    excluded = sum(
        n * sum(c(k, 1 << e).bit_count() - 1 for k in COORDS)
        for e, n in enumerate(uni.frontier_ends) if n
    )
    out.append(CheckResult("cylindrification-nonfrontier", True, f"frontier exclusions {excluded}"))
    return tuple(out)
