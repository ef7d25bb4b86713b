"""Chamber structure of the big cone.

Two chamber families are computed by deliberately independent routes:

* the Zariski family enumerates subsets of the curve list whose restricted
  intersection matrix is negative definite (hereditary BFS), and
* the simple Weyl family decides, for every candidate subset S, whether some
  divisor H + sum(a_i C_i) with a_i >= 0 meets exactly the curves in S
  negatively and all others positively, by exact Fourier-Motzkin
  elimination.

Both families are products over the connected components of the curve graph,
and each enumeration runs once per component.  The Zariski side takes its
components from the curve Gram: a set is negative definite iff its part in
every component is, so the hereditary search runs inside each component,
where one elimination per candidate tests it and gives its witness solution.
A member of a local family has its solution checked to be >= 0 and its
pairings with every curve taken once, as integers, so each atlas witness is
checked by summing its members' rows and the ample class's.  The Weyl side
takes its blocks from the nonzero pattern of its sign rows: a sign system
splits into one system per block and is feasible iff every block system is,
so each block's 2^|K| patterns are decided once and a chamber's witness
joins its blocks' samples.  Within a block the patterns run in (size,
indices) order.  Every infeasible Fourier-Motzkin verdict carries an exactly
checked certificate naming the sign rows it uses; a later pattern whose
system holds all those rows is infeasible too, since adding rows to an empty
system keeps it empty, so it is not solved again.  No pattern is ever pruned
because a subset of it failed: that downward closure is what the Zariski
side is compared against.

The two enumerations share no code path, not even the component search, so
comparing them is a genuine check of the count equality rather than a
tautology.  The module also decides the coincidence criterion (no pair of
curves meeting in one point) and the two chamber-inclusion criteria, each
with explicit certificates, and classifies negative definite supports by
their A-D-E diagram type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from . import linalg, model, zariski
from .errors import NotBig, NotNegativeDefinite, SizeLimit, UnrecognizedDiagram, require
from .linalg import LinearSystemFeasibility, SignConstraint
from .model import DivisorClass, SurfaceModel

# largest curve count enumerate_weyl_chambers accepts: it decides sum(2^|K|)
# sign patterns over its blocks K, and its atlas can still hold 2^n records
MAX_WEYL_CURVES = 12


class ChamberKind(Enum):
    ZARISKI = "zariski"
    WEYL = "weyl"


@dataclass(frozen=True)
class ChamberSignature:
    support: tuple[int, ...]
    boundary: bool
    kind: ChamberKind


@dataclass(frozen=True)
class InclusionVerdict:
    """Verdict for W_S subset-of Z_S; counterexample is a curve outside S."""

    holds: bool
    counterexample: int | None


@dataclass(frozen=True)
class InteriorInclusionVerdict:
    """Verdict for int(Z_S) subset-of W_S; the certificate is a pair in S
    meeting in one point."""

    holds: bool
    pair: tuple[int, int] | None


@dataclass(frozen=True)
class ChamberRecord:
    support: tuple[int, ...]
    witness: DivisorClass
    ade: tuple[str, ...] | None = None
    weyl_in_zariski: InclusionVerdict | None = None
    zariski_interior_in_weyl: InteriorInclusionVerdict | None = None


@dataclass(frozen=True)
class ChamberAtlas:
    kind: ChamberKind
    records: tuple[ChamberRecord, ...]

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.support for r in self.records)


@dataclass(frozen=True)
class BijectionReport:
    equal: bool
    only_zariski: tuple[tuple[int, ...], ...]
    only_weyl: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CoincidenceReport:
    coincide: bool
    pair: tuple[int, int] | None
    witness: DivisorClass | None


# ---------------------------------------------------------------------------
# Pointwise classification
# ---------------------------------------------------------------------------


def weyl_signature(
    m: SurfaceModel, d: DivisorClass, check: zariski.BignessCheck | None = None
) -> ChamberSignature:
    """Curves met negatively by a big divisor; boundary means some listed
    curve is met in exactly zero.  ``check`` is the divisor's bigness
    verdict when the caller already has it."""
    if check is None:
        check = zariski.is_big(m, d)
    if not check.big:
        raise NotBig(check.reason)
    dots = model.pairings_with_curves(m, d)
    return ChamberSignature(
        support=tuple(i for i, x in enumerate(dots) if x < 0),
        boundary=any(x == 0 for x in dots),
        kind=ChamberKind.WEYL,
    )


def zariski_chamber_of(
    m: SurfaceModel, d: DivisorClass, result: zariski.ZariskiResult | None = None
) -> ChamberSignature:
    """Support of the negative part; boundary means the nef part is
    orthogonal to some curve outside that support.  ``result`` is the
    divisor's decomposition when the caller already has it."""
    if result is None:
        result = zariski.zariski_decompose(m, d)
    return ChamberSignature(
        support=result.neg_set,
        boundary=set(result.null_set) > set(result.neg_set),
        kind=ChamberKind.ZARISKI,
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _curve_components(m: SurfaceModel, curves) -> list[tuple[int, ...]]:
    """The curves split into connected pieces of the curve graph, two curves
    linked when they meet (g_ij != 0); each piece sorted, the pieces in
    order of their smallest curve."""
    g = model.curve_gram(m)
    unseen = set(curves)
    pieces = []
    for start in sorted(unseen):
        if start not in unseen:
            continue
        unseen.remove(start)
        piece = [start]
        stack = [start]
        while stack:
            row = g[stack.pop()]
            linked = [w for w in unseen if row[w]]
            unseen.difference_update(linked)
            piece.extend(linked)
            stack.extend(linked)
        pieces.append(tuple(sorted(piece)))
    return pieces


def _hereditary_search(m: SurfaceModel, comp: tuple[int, ...]) -> dict[tuple[int, ...], tuple]:
    """The nonempty negative definite subsets of one component, each mapped
    to its witness solution: the a_j, j in the set, with
    (H + sum(a_j C_j)) . C_k = -1 for every k in it.  Breadth-first growth:
    a set grows only by curves after its last, and one elimination per
    candidate both tests it and solves it.  The candidates are solved on
    the integer curve Gram ``K = c G`` against the right-hand side times c,
    which has the same solution and the same definiteness."""
    model.check_curve_indices(m, comp)
    k, c = m.integer_curve_gram
    # plain ints where integral, as always in configuration mode, whose c
    # clears the ample pairings' denominators too
    rhs = [c * (-1 - x) for x in model.ample_pairings(m)]
    rhs = [int(x) if x.denominator == 1 else x for x in rhs]
    family: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while frontier:
        grown = []
        for s, start in frontier:
            for pos in range(start, len(comp)):
                t = s + (comp[pos],)
                sols = linalg.solve_negative_definite(
                    tuple([tuple([k[i][j] for j in t]) for i in t]), [[rhs[j] for j in t]]
                )
                if sols is not None:
                    family[t] = sols[0]
                    grown.append((t, pos + 1))
        frontier = grown
    return family


def negative_definite_subsets(m: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """All curve-index sets with negative definite restricted Gram, plus the
    empty set, in (size, indices) order.  The restricted Gram is block
    diagonal over the components of the curve graph, so a set is negative
    definite iff its part in each component is: the hereditary search runs
    inside each component and the family is the product of theirs."""
    family: list[tuple[int, ...]] = [()]
    for comp in _curve_components(m, range(model.curve_count(m))):
        local = [(), *_hereditary_search(m, comp)]
        family = [s + t for s in family for t in local]
    return tuple(sorted((tuple(sorted(s)) for s in family), key=lambda s: (len(s), s)))


def _require_negative_definite(m: SurfaceModel, s: tuple[int, ...]) -> None:
    if not linalg.is_negative_definite(model.restrict_gram(m, s)):
        raise NotNegativeDefinite("curve set %r is not negative definite" % (list(s),))


def enumerate_zariski_chambers(m: SurfaceModel) -> ChamberAtlas:
    """One chamber per negative definite subset.  The family is the product of
    the components' local families, and each record is joined from facts
    worked out once per nonempty member t of a local family: its witness
    solution from the search, checked to be >= 0, with its integer pairing
    row; the (smallest curve, A-D-E label) of each connected piece of t; its
    first pair meeting in one point; and its first curve c that meets t with
    t + {c} in the local family.  For c in component K, S + {c} is negative
    definite iff (S & K) + {c} is, so a record's counterexample to W_S in
    Z_S and its pair are the least of its members'.  Every record's witness
    is checked on the sum of H's row and its members' rows."""
    g = model.curve_gram(m)
    ample_row = model.pairing_numerators(m, model.ample_divisor(m))
    # one tuple of member facts per support: (curves, solution, integer
    # row), labels, counterexample, pair
    products: list[tuple] = [()]
    for comp in _curve_components(m, range(model.curve_count(m))):
        local = _hereditary_search(m, comp)
        facts: list[tuple] = [()]
        for t, sol in local.items():
            c = next((c for c in _curves_meeting(g, t) if tuple(sorted(t + (c,))) in local), None)
            labels = tuple((p[0], _piece_label(g, p)) for p in _curve_components(m, t))
            part = (t, sol, _solution_row(m, t, sol))
            facts.append(((part, labels, c, _pair_meeting_once(g, t)),))
        products = [p + f for p in products for f in facts]
    records = []
    for product in products:
        parts, labels, cs, pairs = zip(*product) if product else ((),) * 4
        s = tuple(sorted(j for t, _, _ in parts for j in t))
        c = min((c for c in cs if c is not None), default=None)
        pair = min((p for p in pairs if p), default=None)
        records.append(
            ChamberRecord(
                support=s,
                witness=_join_witness(m, s, ample_row, parts) if s else model.ample_divisor(m),
                ade=tuple(label for _, label in sorted(x for ls in labels for x in ls)),
                weyl_in_zariski=InclusionVerdict(c is None, c),
                zariski_interior_in_weyl=InteriorInclusionVerdict(pair is None, pair),
            )
        )
    records.sort(key=lambda r: (len(r.support), r.support))
    return ChamberAtlas(ChamberKind.ZARISKI, tuple(records))


def _weyl_rows(m: SurfaceModel) -> tuple[tuple[SignConstraint, SignConstraint], ...]:
    """Per curve j, the rows (H + sum(a_i C_i)) . C_j > 0 and < 0, in that
    order, so that ``rows[j][j in s]`` is curve j's row for support s."""
    g = model.curve_gram(m)
    h = model.ample_pairings(m)
    return tuple(
        tuple(SignConstraint(g[j], h[j], sense) for sense in (linalg.SENSE_GT, linalg.SENSE_LT))
        for j in range(model.curve_count(m))
    )


def _sign_system(rows, s: frozenset) -> LinearSystemFeasibility:
    n = len(rows)
    return LinearSystemFeasibility(
        n, tuple(rows[j][j in s] for j in range(n)), frozenset(range(n))
    )


def weyl_sign_system(m: SurfaceModel, s) -> LinearSystemFeasibility:
    """Feasibility system for a divisor H + sum(a_i C_i), a_i >= 0, meeting
    the curves in s negatively and all other listed curves positively."""
    return _sign_system(_weyl_rows(m), frozenset(s))


def check_weyl_size(m: SurfaceModel) -> None:
    """Raise SizeLimit when the model has more curves than the Weyl
    enumeration accepts."""
    n = model.curve_count(m)
    if n > MAX_WEYL_CURVES:
        raise SizeLimit(
            "Weyl enumeration takes at most %d curves (got %d)" % (MAX_WEYL_CURVES, n)
        )


def _weyl_blocks(rows) -> tuple[tuple[int, ...], ...]:
    """The curves split into blocks that no sign row crosses: curves i and j
    share a block when either one's row has a nonzero coefficient on the
    other's variable.  Each block sorted, in order of its smallest curve.
    The pattern is read from the rational rows, whose integer forms are
    only ever built for the block systems."""
    n = len(rows)
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j, (gt, _) in enumerate(rows):
        for i, x in enumerate(gt.coeffs):
            if x:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for j in range(n):
        groups.setdefault(root(j), []).append(j)
    blocks = tuple(tuple(b) for b in sorted(groups.values()))
    block_of = {j: k for k, b in enumerate(blocks) for j in b}
    require(
        all(
            block_of[i] == block_of[j]
            for j in range(n)
            for row in rows[j]
            for i, x in enumerate(row.coeffs)
            if x
        ),
        "enumerate_weyl_chambers: a sign row reaches outside its block",
    )
    return blocks


def enumerate_weyl_chambers(m: SurfaceModel) -> ChamberAtlas:
    """Independent enumeration of the simple Weyl chambers by sign-pattern
    feasibility.  The sign system of a pattern is the disjoint union of one
    system per block, on that block's variables, and is feasible iff each
    of them is; so every block decides all its 2^|K| patterns once, and the
    chambers are the products of feasible block patterns, each witnessed by
    its blocks' samples joined.  Exponential in the block sizes by design;
    meant for the desk-scale models this package targets.  The sign rows
    are built once per block, so each keeps its integer form across all
    patterns.  A pattern is skipped, as infeasible, when its system contains
    the certificate rows of an earlier infeasible pattern: the curves that
    certificate needs inside the support and those it needs outside.  Every
    other pattern is solved on its full system, so the samples do not
    depend on the skipping."""
    check_weyl_size(m)
    n = model.curve_count(m)
    rows = _weyl_rows(m)
    # feasible patterns so far, as (support, sample coordinates by curve)
    patterns: list[tuple[tuple[int, ...], tuple[tuple[int, Fraction], ...]]] = [((), ())]
    for block in _weyl_blocks(rows):
        block_rows = tuple(
            tuple(
                SignConstraint(tuple(r.coeffs[i] for i in block), r.constant, r.sense)
                for r in rows[j]
            )
            for j in block
        )
        feasible = []
        # (need_in, need_out) bitmasks over the block, one pair per
        # infeasibility certificate: the curves of its strict rows whose row
        # is "<", and those whose row is ">"
        refuted: list[tuple[int, int]] = []
        for size in range(len(block) + 1):
            for local in combinations(range(len(block)), size):
                mask = sum(1 << p for p in local)
                if any(mask & need_in == need_in and not mask & need_out
                       for need_in, need_out in refuted):
                    continue  # its system contains a refuted one's certificate rows
                res = linalg.fm_feasible(_sign_system(block_rows, frozenset(local)))
                if res.feasible:
                    feasible.append((tuple(block[p] for p in local), tuple(zip(block, res.sample))))
                else:
                    used = sum(1 << p for p in res.certificate.support)
                    refuted.append((used & mask, used & ~mask))
        patterns = [(s + t, xs + ys) for s, xs in patterns for t, ys in feasible]
    joined = []
    for s, coords in patterns:
        a = [Fraction(0)] * n
        for i, x in coords:
            a[i] = x
        joined.append((tuple(sorted(s)), a))
    joined.sort(key=lambda c: (len(c[0]), c[0]))
    records = tuple(
        ChamberRecord(support=s, witness=model.divisor_from_ample_and_curves(m, 1, a))
        for s, a in joined
    )
    return ChamberAtlas(ChamberKind.WEYL, records)


def verify_bijection(zariski_atlas: ChamberAtlas, weyl_atlas: ChamberAtlas) -> BijectionReport:
    """Compare the two independently enumerated families as set families."""
    z = set(zariski_atlas.supports)
    w = set(weyl_atlas.supports)
    only_z = tuple(sorted(z - w, key=lambda s: (len(s), s)))
    only_w = tuple(sorted(w - z, key=lambda s: (len(s), s)))
    return BijectionReport(not only_z and not only_w, only_z, only_w)


# ---------------------------------------------------------------------------
# Witness constructions
# ---------------------------------------------------------------------------


def _solution_row(m: SurfaceModel, curves: tuple[int, ...], sol) -> tuple[tuple[int, ...], int]:
    """The witness solution on a negative definite curve set, checked to be
    >= 0, and the pairings of sum(a_j C_j), j in the set, with every listed
    curve, as integer numerators over a denominator > 0."""
    require(all(x >= 0 for x in sol), "weyl_witness: negative coefficient")
    a = [Fraction(0)] * model.curve_count(m)
    for j, x in zip(curves, sol):
        a[j] = x
    return model.pairing_numerators(m, model.divisor_from_ample_and_curves(m, 0, a))


def _join_witness(m: SurfaceModel, s: tuple[int, ...], ample_row, parts) -> DivisorClass:
    """D = H + sum(a_i C_i) from mutually orthogonal curve sets that make up
    s, each given as (curves, solution, integer row), checked to meet s in
    -1 and every other curve positively.  D . C_c is H's row plus the
    parts' rows, summed in integers over the lcm of their denominators; the
    check runs on every call, also under ``python -O``.  The parts are
    orthogonal, so each one's solution holds in the join, and the witness
    is built from the parts' own coefficients."""
    rows = [ample_row, *(row for _, _, row in parts)]
    den = math.lcm(*(d for _, d in rows))
    scaled = (r if d == den else [x * (den // d) for x in r] for r, d in rows)
    nums = [sum(col) for col in zip(*scaled)]
    require(all(nums[j] == -den for j in s), "weyl_witness: pairing with the support is not -1")
    require(
        all(x > 0 for c, x in enumerate(nums) if c not in s),
        "weyl_witness: nonpositive pairing outside the support",
    )
    a = [Fraction(0)] * model.curve_count(m)
    for curves, sol, _ in parts:
        for j, x in zip(curves, sol):
            a[j] = x
    return model.divisor_from_ample_and_curves(m, 1, a)


def weyl_witness(m: SurfaceModel, s) -> DivisorClass:
    """The divisor D = H + sum(a_i C_i) with D . C_j = -1 for all j in s.

    The solve is against the negative definite restricted Gram; the inverse
    has nonpositive entries, so the coefficients come out nonnegative, and
    D meets every curve outside s positively.  One elimination tests s and
    solves it, and the solution is checked as in the Zariski atlas.
    """
    s = tuple(sorted(set(s)))
    if not s:
        raise ValueError("witness construction needs a nonempty support")
    h = model.ample_pairings(m)
    sols = linalg.solve_negative_definite(model.restrict_gram(m, s), [[-1 - h[j] for j in s]])
    if sols is None:
        raise NotNegativeDefinite("curve set %r is not negative definite" % (list(s),))
    ample_row = model.pairing_numerators(m, model.ample_divisor(m))
    return _join_witness(m, s, ample_row, [(s, sols[0], _solution_row(m, s, sols[0]))])


def divergence_witness(m: SurfaceModel, i: int, j: int) -> DivisorClass:
    """For curves with C_i . C_j = 1, a big divisor whose Zariski support is
    {i, j} while its Weyl support is {j}.

    Solve (H + x_1 C_i + x_2 C_j) . C = 0 on the pair, then take
    D = H + (x_1 + 1) C_i + (x_2 + 3) C_j.  Its sign pattern (negative on
    C_j, positive on every other curve) is checked in integers per call.
    """
    model.check_curve_indices(m, (i, j))
    g = model.curve_gram(m)
    if i == j or g[i][j] != 1:
        raise ValueError("curves %d, %d do not meet in one point" % (i, j))
    h = model.ample_pairings(m)
    sub = model.restrict_gram(m, (i, j))
    lo, hi = min(i, j), max(i, j)
    x = dict(zip((lo, hi), linalg.solve_linear(sub, [-h[lo], -h[hi]])))
    a = [Fraction(0)] * model.curve_count(m)
    a[i] = x[i] + 1
    a[j] = x[j] + 3
    d = model.divisor_from_ample_and_curves(m, 1, a)
    nums, _ = model.pairing_numerators(m, d)
    require(
        nums[j] < 0 and all(v > 0 for c, v in enumerate(nums) if c != j),
        "divergence_witness: Weyl support is not {%d}" % j,
    )
    return d


def weyl_only_witness(m: SurfaceModel, s, cprime: int) -> DivisorClass:
    """A divisor in W_s but outside Z_s, for a curve cprime outside s that
    keeps s + {cprime} negative definite yet meets some curve of s.

    Construction: take the nef part P of a divisor supported on
    t = s + {cprime}, add back the solution of the all(-1) pairing system on
    t, then shrink the cprime coefficient to a quarter of the smallest
    s-coefficient.  The resulting sign pattern (positive on cprime, negative
    on s) is checked per instance.
    """
    s = tuple(sorted(set(s)))
    if not s or cprime in s:
        raise ValueError("need a nonempty support and a curve outside it")
    t = tuple(sorted(s + (cprime,)))
    h = model.ample_pairings(m)
    sols = linalg.solve_negative_definite(
        model.restrict_gram(m, t), [[-h[j] for j in t], [Fraction(-1)] * len(t)]
    )
    if sols is None:
        raise NotNegativeDefinite("curve set %r is not negative definite" % (list(t),))
    g = model.curve_gram(m)
    if all(g[cprime][i] == 0 for i in s):
        raise ValueError("curve %d meets no curve of the support" % cprime)
    x, c = sols
    require(
        all(v > 0 for v in x) and all(v > 0 for v in c),
        "weyl_only_witness: nonpositive solution",
    )
    coeff = dict(zip(t, c))
    coeff[cprime] = Fraction(1, 4) * min(coeff[j] for j in s)
    a = [Fraction(0)] * model.curve_count(m)
    for pos, j in enumerate(t):
        a[j] = x[pos] + coeff[j]
    d = model.divisor_from_ample_and_curves(m, 1, a)
    dots = model.pairings_with_curves(m, d)
    require(dots[cprime] > 0, "weyl_only_witness: nonpositive pairing with the extra curve")
    require(all(dots[j] < 0 for j in s), "weyl_only_witness: nonnegative pairing on the support")
    require(
        all(dots[k] > 0 for k in range(model.curve_count(m)) if k not in t),
        "weyl_only_witness: nonpositive pairing outside the support",
    )
    return d


# ---------------------------------------------------------------------------
# Comparison criteria
# ---------------------------------------------------------------------------


def _pair_meeting_once(g, curves) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of the sorted curves with
    C_i . C_j = 1, or None."""
    return next(((i, j) for i, j in combinations(curves, 2) if g[i][j] == 1), None)


def _curves_meeting(g, s: tuple[int, ...]):
    """The curves outside s that meet some curve of s, in index order."""
    return (c for c in range(len(g)) if c not in s and any(g[c][i] for i in s))


def decompositions_coincide(m: SurfaceModel) -> CoincidenceReport:
    """The decompositions coincide exactly when no two listed curves meet in
    one point; otherwise the first offending pair is certified with a
    divisor whose Weyl and Zariski signatures differ."""
    pair = _pair_meeting_once(model.curve_gram(m), range(model.curve_count(m)))
    if pair is None:
        return CoincidenceReport(True, None, None)
    return CoincidenceReport(False, pair, divergence_witness(m, *pair))


def weyl_in_zariski(m: SurfaceModel, s) -> InclusionVerdict:
    """W_s is contained in Z_s iff every curve outside s that keeps the
    support negative definite is orthogonal to all of s."""
    s = tuple(sorted(set(s)))
    _require_negative_definite(m, s)
    for c in _curves_meeting(model.curve_gram(m), s):
        if linalg.is_negative_definite(model.restrict_gram(m, s + (c,))):
            return InclusionVerdict(False, c)
    return InclusionVerdict(True, None)


def zariski_interior_in_weyl(m: SurfaceModel, s) -> InteriorInclusionVerdict:
    """int(Z_s) is contained in W_s iff no two curves of s meet in one
    point."""
    s = tuple(sorted(set(s)))
    _require_negative_definite(m, s)
    pair = _pair_meeting_once(model.curve_gram(m), s)
    return InteriorInclusionVerdict(pair is None, pair)


# ---------------------------------------------------------------------------
# A-D-E classification
# ---------------------------------------------------------------------------


def _arm_lengths(nodes, adj, branch):
    arms = []
    for first in sorted(adj[branch]):
        length = 1
        prev, cur = branch, first
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise UnrecognizedDiagram("nested branch point")
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def _classify_component(nodes, adj) -> str:
    k = len(nodes)
    degrees = {v: len(adj[v]) for v in nodes}
    edges = sum(degrees.values()) // 2
    if edges != k - 1:
        raise UnrecognizedDiagram("component is not a tree")
    if any(d > 3 for d in degrees.values()):
        raise UnrecognizedDiagram("vertex of degree > 3")
    branches = [v for v in nodes if degrees[v] == 3]
    if not branches:
        return "A%d" % k
    if len(branches) > 1:
        raise UnrecognizedDiagram("more than one branch point")
    arms = _arm_lengths(nodes, adj, branches[0])
    if arms[0] == 1 and arms[1] == 1:
        return "D%d" % k
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise UnrecognizedDiagram("arm lengths %r" % (arms,))


def _piece_label(g, piece: tuple[int, ...]) -> str:
    """The Dynkin diagram of one connected piece of a negative definite set,
    whose curves must pair in 0 or 1."""
    for i, j in combinations(piece, 2):
        if g[i][j] not in (0, 1):
            raise UnrecognizedDiagram("pairing %s within a negative definite set" % g[i][j])
    return _classify_component(piece, {v: {w for w in piece if w != v and g[v][w]} for v in piece})


def classify_ade(m: SurfaceModel, s) -> tuple[str, ...]:
    """Split a negative definite support into its connected pieces and name
    each one's simply-laced Dynkin diagram, in order of the pieces' smallest
    curve index.  Curves of different pieces do not meet, so each piece is
    labelled on its own."""
    s = tuple(sorted(set(s)))
    _require_negative_definite(m, s)
    g = model.curve_gram(m)
    return tuple(_piece_label(g, piece) for piece in _curve_components(m, s))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def verdicts_to_document(
    names: tuple[str, ...],
    wz: InclusionVerdict | None,
    zw: InteriorInclusionVerdict | None,
) -> dict:
    """The two inclusion verdicts as report entries, curves by their
    ``names``; a verdict that is None has no entry."""
    doc: dict = {}
    if wz is not None:
        doc["weyl_in_zariski"] = {
            "holds": wz.holds,
            "counterexample": None if wz.counterexample is None else names[wz.counterexample],
        }
    if zw is not None:
        doc["zariski_interior_in_weyl"] = {
            "holds": zw.holds,
            "pair": None if zw.pair is None else [names[i] for i in zw.pair],
        }
    return doc


def atlas_to_document(m: SurfaceModel, atlas: ChamberAtlas) -> dict:
    names = model.curve_names(m)
    family = []
    for r in atlas.records:
        entry: dict = {
            "support": [names[i] for i in r.support],
            "witness": model.divisor_to_document(m, r.witness),
        }
        if r.ade is not None:
            entry["ade"] = list(r.ade)
        entry.update(verdicts_to_document(names, r.weyl_in_zariski, r.zariski_interior_in_weyl))
        family.append(entry)
    return {"kind": atlas.kind.value, "family": family}
