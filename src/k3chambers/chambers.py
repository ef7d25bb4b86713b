"""Chamber structure of the big cone.

Two chamber families are computed by deliberately independent routes:

* the Zariski family enumerates subsets of the curve list whose restricted
  intersection matrix is negative definite (hereditary BFS), and
* the simple Weyl family decides, for every candidate subset S, whether some
  divisor H + sum(a_i C_i) with a_i >= 0 meets exactly the curves in S
  negatively and all others positively, by exact Fourier-Motzkin
  elimination.

The two enumerations share no code path, so comparing them is a genuine
check of the count equality rather than a tautology.  The module also
decides the coincidence criterion (no pair of curves meeting in one point)
and the two chamber-inclusion criteria, each with explicit certificates,
and classifies negative definite supports by their A-D-E diagram type.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from . import linalg, model, zariski
from .errors import NotBig, NotNegativeDefinite, UnrecognizedDiagram, require
from .linalg import LinearSystemFeasibility, SignConstraint
from .model import DivisorClass, SurfaceModel


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

    def family(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(s) for s in self.supports)


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


def weyl_signature(m: SurfaceModel, d: DivisorClass) -> ChamberSignature:
    """Curves met negatively by a big divisor; boundary means some listed
    curve is met in exactly zero."""
    check = zariski.is_big(m, d)
    if not check.big:
        raise NotBig(check.reason or "divisor is not big")
    dots = model.pairings_with_curves(m, d)
    return ChamberSignature(
        support=tuple(i for i, x in enumerate(dots) if x < 0),
        boundary=any(x == 0 for x in dots),
        kind=ChamberKind.WEYL,
    )


def zariski_chamber_of(m: SurfaceModel, d: DivisorClass) -> ChamberSignature:
    """Support of the negative part; boundary means the nef part is
    orthogonal to some curve outside that support."""
    result = zariski.zariski_decompose(m, d)
    return ChamberSignature(
        support=result.neg_set,
        boundary=set(result.null_set) > set(result.neg_set),
        kind=ChamberKind.ZARISKI,
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def negative_definite_subsets(m: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """All curve-index sets with negative definite restricted Gram, plus the
    empty set, by hereditary breadth-first growth."""
    n = model.curve_count(m)
    family: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        grown: list[tuple[int, ...]] = []
        for s in frontier:
            start = s[-1] + 1 if s else 0
            for c in range(start, n):
                t = s + (c,)
                if linalg.is_negative_definite(model.restrict_gram(m, t)):
                    grown.append(t)
        family.extend(grown)
        frontier = grown
    return tuple(sorted(family, key=lambda s: (len(s), s)))


def _require_negative_definite(m: SurfaceModel, s: tuple[int, ...]) -> None:
    if not linalg.is_negative_definite(model.restrict_gram(m, s)):
        raise NotNegativeDefinite(
            "curve set %r is not negative definite" % (list(s),)
        )


def enumerate_zariski_chambers(m: SurfaceModel) -> ChamberAtlas:
    records = []
    for s in negative_definite_subsets(m):
        witness = model.ample_divisor(m) if not s else weyl_witness(m, s)
        records.append(
            ChamberRecord(
                support=s,
                witness=witness,
                ade=classify_ade(m, s),
                weyl_in_zariski=weyl_in_zariski(m, s),
                zariski_interior_in_weyl=zariski_interior_in_weyl(m, s),
            )
        )
    return ChamberAtlas(ChamberKind.ZARISKI, tuple(records))


def weyl_sign_system(m: SurfaceModel, s) -> LinearSystemFeasibility:
    """Feasibility system for a divisor H + sum(a_i C_i), a_i >= 0, meeting
    the curves in s negatively and all other listed curves positively."""
    s = frozenset(s)
    g = model.curve_gram(m)
    h = model.ample_pairings(m)
    n = model.curve_count(m)
    rows = tuple(
        SignConstraint(
            coeffs=g[j],
            constant=h[j],
            sense=linalg.SENSE_LT if j in s else linalg.SENSE_GT,
        )
        for j in range(n)
    )
    return LinearSystemFeasibility(n, rows, frozenset(range(n)))


def enumerate_weyl_chambers(m: SurfaceModel) -> ChamberAtlas:
    """Independent enumeration of the simple Weyl chambers by exhaustive
    sign-pattern feasibility.  Exponential in the curve count by design;
    meant for the desk-scale models this package targets."""
    n = model.curve_count(m)
    records = []
    for size in range(n + 1):
        for s in combinations(range(n), size):
            res = linalg.fm_feasible(weyl_sign_system(m, s))
            if res.feasible:
                records.append(
                    ChamberRecord(
                        support=s,
                        witness=model.divisor_from_ample_and_curves(m, 1, res.sample),
                    )
                )
    return ChamberAtlas(ChamberKind.WEYL, tuple(records))


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


def weyl_witness(m: SurfaceModel, s) -> DivisorClass:
    """The divisor D = H + sum(a_i C_i) with D . C_j = -1 for all j in s.

    The solve is against the negative definite restricted Gram; the inverse
    has nonpositive entries, so the coefficients come out nonnegative, and
    D meets every curve outside s positively.
    """
    s = tuple(sorted(set(s)))
    if not s:
        raise ValueError("witness construction needs a nonempty support")
    _require_negative_definite(m, s)
    h = model.ample_pairings(m)
    sub = model.restrict_gram(m, s)
    sol = linalg.solve_linear(sub, [Fraction(-1) - h[j] for j in s])
    require(all(a >= 0 for a in sol), "weyl_witness: negative coefficient")
    a = [Fraction(0)] * model.curve_count(m)
    for pos, j in enumerate(s):
        a[j] = sol[pos]
    d = model.divisor_from_ample_and_curves(m, 1, a)
    dots = model.pairings_with_curves(m, d)
    require(all(dots[j] == -1 for j in s), "weyl_witness: pairing with the support is not -1")
    require(
        all(dots[c] > 0 for c in range(model.curve_count(m)) if c not in s),
        "weyl_witness: nonpositive pairing outside the support",
    )
    return d


def divergence_witness(m: SurfaceModel, i: int, j: int) -> DivisorClass:
    """For curves with C_i . C_j = 1, a big divisor whose Zariski support is
    {i, j} while its Weyl support is {j}.

    Solve (H + x_1 C_i + x_2 C_j) . C = 0 on the pair, then take
    D = H + (x_1 + 1) C_i + (x_2 + 3) C_j.
    """
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
    return model.divisor_from_ample_and_curves(m, 1, a)


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
    _require_negative_definite(m, t)
    g = model.curve_gram(m)
    if all(g[cprime][i] == 0 for i in s):
        raise ValueError("curve %d meets no curve of the support" % cprime)
    h = model.ample_pairings(m)
    sub = model.restrict_gram(m, t)
    x = linalg.solve_linear(sub, [-h[j] for j in t])
    c = linalg.solve_linear(sub, [Fraction(-1)] * len(t))
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


def decompositions_coincide(m: SurfaceModel) -> CoincidenceReport:
    """The decompositions coincide exactly when no two listed curves meet in
    one point; otherwise the first offending pair is certified with a
    divisor whose Weyl and Zariski signatures differ."""
    g = model.curve_gram(m)
    n = model.curve_count(m)
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] == 1:
                return CoincidenceReport(False, (i, j), divergence_witness(m, i, j))
    return CoincidenceReport(True, None, None)


def weyl_in_zariski(m: SurfaceModel, s) -> InclusionVerdict:
    """W_s is contained in Z_s iff every curve outside s that keeps the
    support negative definite is orthogonal to all of s."""
    s = tuple(sorted(set(s)))
    _require_negative_definite(m, s)
    g = model.curve_gram(m)
    for c in range(model.curve_count(m)):
        if c in s:
            continue
        if linalg.is_negative_definite(model.restrict_gram(m, s + (c,))):
            if any(g[c][i] != 0 for i in s):
                return InclusionVerdict(False, c)
    return InclusionVerdict(True, None)


def zariski_interior_in_weyl(m: SurfaceModel, s) -> InteriorInclusionVerdict:
    """int(Z_s) is contained in W_s iff no two curves of s meet in one
    point."""
    s = tuple(sorted(set(s)))
    _require_negative_definite(m, s)
    g = model.curve_gram(m)
    for i, j in combinations(s, 2):
        if g[i][j] == 1:
            return InteriorInclusionVerdict(False, (i, j))
    return InteriorInclusionVerdict(True, None)


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


def classify_ade(m: SurfaceModel, s) -> tuple[str, ...]:
    """Split a negative definite support into connected components and name
    each simply-laced Dynkin diagram.  Components are reported in order of
    their smallest curve index."""
    s = tuple(sorted(set(s)))
    _require_negative_definite(m, s)
    sub = model.restrict_gram(m, s)
    k = len(s)
    for i in range(k):
        for j in range(i + 1, k):
            if sub[i][j] not in (0, 1):
                raise UnrecognizedDiagram(
                    "pairing %s within a negative definite set" % sub[i][j]
                )
    adj = {v: set() for v in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            if sub[i][j] == 1:
                adj[i].add(j)
                adj[j].add(i)
    seen: set[int] = set()
    labels = []
    for start in range(k):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        labels.append(_classify_component(comp, adj))
    return tuple(labels)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


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
        if r.weyl_in_zariski is not None:
            entry["weyl_in_zariski"] = {
                "holds": r.weyl_in_zariski.holds,
                "counterexample": None
                if r.weyl_in_zariski.counterexample is None
                else names[r.weyl_in_zariski.counterexample],
            }
        if r.zariski_interior_in_weyl is not None:
            v = r.zariski_interior_in_weyl
            entry["zariski_interior_in_weyl"] = {
                "holds": v.holds,
                "pair": None if v.pair is None else [names[v.pair[0]], names[v.pair[1]]],
            }
        family.append(entry)
    return {"kind": atlas.kind.value, "family": family}
