"""Shared independent oracles and samplers for the test suite.

The brute-force decomposition oracle deliberately avoids the engine's
iterative path: it enumerates every negative definite support, solves the
orthogonality system, verifies the solve by substitution, and checks the
result invariants directly.

The atlas oracles ignore the components of the curve graph, which the
engine's atlases are products over: every one of the 2^n sign patterns is
one Fourier-Motzkin system on all n variables, every subset gets its own
negative definiteness test, and every witness is one solve on its whole
support.

The polyhedral oracle of the comparison criteria decides, for every pair
of negative definite sets, whether a Weyl chamber meets the interior of a
Zariski chamber, by one Fourier-Motzkin system per pair.

None of these oracles calls the engine's enumeration or its sign systems:
the negative definite family comes from ``nd_family_brute_force``, the sign
rows are built here, and inverses come from sympy.

The cross-section oracle classifies every sample of a plot's grid on its
own, with no filling between classified samples.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

from k3chambers import chambers, linalg, model, zariski
from k3chambers.chambers import ChamberRecord, InclusionVerdict, InteriorInclusionVerdict
from k3chambers.linalg import SENSE_GT, SENSE_LT, LinearSystemFeasibility, SignConstraint
from k3chambers.model import SurfaceModel


def _subsets(n: int):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def sympy_matrix(rows):
    """The rational matrix as a sympy Matrix."""
    import sympy

    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def inverse_is_nonpositive(g) -> bool:
    """Whether every entry of g^-1, by sympy's own inverse, is <= 0.  The
    lemma says so for a symmetric negative definite g whose entries off
    the diagonal are >= 0."""
    return all(x <= 0 for x in sympy_matrix(g).inv())


def weyl_records_exhaustive(m: SurfaceModel) -> tuple[ChamberRecord, ...]:
    """The Weyl atlas records by the exhaustive 2^n loop: one sign system on
    all the curves per pattern (D . C_j < 0 on the pattern, > 0 off it, for
    D = H + sum(a_i C_i) with a >= 0), witnessed by that system's sample."""
    n = model.curve_count(m)
    g = model.curve_gram(m)
    h = model.ample_pairings(m)
    records = []
    for s in _subsets(n):
        rows = tuple(SignConstraint(g[j], h[j], SENSE_LT if j in s else SENSE_GT) for j in range(n))
        res = linalg.fm_feasible(LinearSystemFeasibility(n, rows, frozenset(range(n))))
        if res.feasible:
            records.append(ChamberRecord(s, model.divisor_from_ample_and_curves(m, 1, res.sample)))
    return tuple(records)


def nd_family_brute_force(m: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """Every curve subset whose restricted Gram is negative definite, each
    tested on its own, in (size, indices) order."""
    return tuple(
        s for s in _subsets(model.curve_count(m))
        if linalg.is_negative_definite(model.restrict_gram(m, s))
    )


def zariski_records_brute_force(m: SurfaceModel) -> tuple[ChamberRecord, ...]:
    """The Zariski atlas records from the brute-force family: the witness
    from one solve on the whole support, the criteria read off the family
    and the Gram, and the A-D-E labels from the classifier with its own
    definiteness test."""
    n = model.curve_count(m)
    g = model.curve_gram(m)
    h = model.ample_pairings(m)
    supports = nd_family_brute_force(m)
    family = set(supports)
    records = []
    for s in supports:
        a = [Fraction(0)] * n
        if s:
            sol = linalg.solve_linear(model.restrict_gram(m, s), [-1 - h[j] for j in s])
            for j, x in zip(s, sol):
                a[j] = x
        outside = (c for c in range(n) if c not in s)
        counterexample = next(
            (c for c in outside
             if tuple(sorted(s + (c,))) in family and any(g[c][i] for i in s)),
            None,
        )
        pair = next(((i, j) for i, j in combinations(s, 2) if g[i][j] == 1), None)
        records.append(
            ChamberRecord(
                support=s,
                witness=model.divisor_from_ample_and_curves(m, 1, a),
                ade=chambers.classify_ade(m, s),
                weyl_in_zariski=InclusionVerdict(counterexample is None, counterexample),
                zariski_interior_in_weyl=InteriorInclusionVerdict(pair is None, pair),
            )
        )
    return tuple(records)


def sample_big_divisor(m: SurfaceModel, rng):
    """t*H + sum(a_i C_i) with t > 0 and a_i >= 0: big by construction."""
    n = model.curve_count(m)
    t = Fraction(rng.randint(1, 3))
    a = [Fraction(rng.randint(0, 24), rng.choice((1, 2, 4))) for _ in range(n)]
    return model.divisor_from_ample_and_curves(m, t, a)


def valid_supports_brute_force(m: SurfaceModel, d) -> list[tuple[int, ...]]:
    """All negative definite supports T for which the orthogonality solve
    yields strictly positive coefficients and a candidate nef part that meets
    every listed curve nonnegatively."""
    n = model.curve_count(m)
    g = model.curve_gram(m)
    dots = model.pairings_with_curves(m, d)
    valid = []
    for t_set in nd_family_brute_force(m):
        sub = model.restrict_gram(m, t_set)
        try:
            coeffs = linalg.solve_linear(sub, [dots[j] for j in t_set])
        except linalg.SingularMatrix:  # pragma: no cover - ND is nonsingular
            continue
        # substitution check: the solve really satisfies N . C_j = D . C_j
        for pos, j in enumerate(t_set):
            assert sum(coeffs[q] * g[t_set[q]][j] for q in range(len(t_set))) == dots[j]
        if any(b <= 0 for b in coeffs):
            continue
        residual_ok = True
        for i in range(n):
            if i in t_set:
                continue
            r = dots[i] - sum(coeffs[q] * g[i][t_set[q]] for q in range(len(t_set)))
            if r < 0:
                residual_ok = False
                break
        if residual_ok:
            valid.append(t_set)
    return valid


def criteria_cells(m: SurfaceModel) -> dict:
    """On the slice D = H + sum(a_i C_i), a >= 0, where every D is big: for
    each pair (S, T) of negative definite sets, the ``fm_feasible`` result of
    W_S meeting int Z_T.  W_S is D.C_j < 0 on S and > 0 off S.  int Z_T is
    x > 0 for the negative part's coefficients x = G_T^-1 (D.C_T), and
    P.C_k > 0 off T for the nef part P = D - sum(x_j C_j); G_T^-1 is
    sympy's inverse, not read from the atlas."""
    n = model.curve_count(m)
    g = model.curve_gram(m)
    h = model.ample_pairings(m)
    family = nd_family_brute_force(m)
    weyl = {
        s: [SignConstraint(g[j], h[j], SENSE_LT if j in s else SENSE_GT) for j in range(n)]
        for s in family
    }
    interior = {}
    for t in family:
        inv = sympy_matrix(model.restrict_gram(m, t)).inv()
        inv = [[Fraction(int(b.p), int(b.q)) for b in inv.row(i)] for i in range(len(t))]
        # x_i = sum over l of G_T^-1[i][l] (h + g a)_{t_l}, as (coefficients of a, constant)
        x = [
            ([sum(b * g[j][v] for b, j in zip(row, t)) for v in range(n)],
             sum(b * h[j] for b, j in zip(row, t)))
            for row in inv
        ]
        rows = [SignConstraint(tuple(c), k, SENSE_GT) for c, k in x]
        for k in range(n):
            if k not in t:
                coeffs = [g[k][v] - sum(g[k][j] * c[v] for j, (c, _) in zip(t, x)) for v in range(n)]
                const = h[k] - sum(g[k][j] * c0 for j, (_, c0) in zip(t, x))
                rows.append(SignConstraint(tuple(coeffs), const, SENSE_GT))
        interior[t] = rows
    return {
        (s, t): linalg.fm_feasible(
            LinearSystemFeasibility(n, tuple(weyl[s] + interior[t]), frozenset(range(n)))
        )
        for s in family for t in family
    }


def cross_section_per_sample(m: SurfaceModel, corners, res: int):
    """The samples and attained supports of ``plot.classify_cross_section``,
    by one ``zariski.grow_support`` per sample: (u1, u2, u3, weyl_support,
    weyl_boundary, zariski_support, zariski_boundary) per sample in row
    order, each row its upward triangles and then its downward ones."""
    n = model.curve_count(m)
    points = (*corners, model.ample_divisor(m))
    flat, den = linalg.over_common_denominator(
        x for a in points
        for x in (*(model.pair(m, a, b) for b in points), *model.pairings_with_curves(m, a))
    )
    w = 4 + n
    g = [flat[k * w:k * w + 4] for k in range(4)]
    cd1, cd2, cd3, hh = (flat[k * w + 4:(k + 1) * w] for k in range(4))
    gram, c = m.integer_curve_gram
    tables: dict = {}

    def table(s):
        if s not in tables:
            tables[s] = zariski.support_table(gram, s)
        return tables[s]

    attained = ({}, {})

    def classify(u1: int, u2: int, u3: int):
        q = [u1 * a + u2 * b + u3 * d for a, b, d in zip(cd1, cd2, cd3)]
        s, tab, x, zero = zariski.grow_support(q, table)
        if tab is None or (s and min(x) <= 0):
            return (None, False, None, False)
        det = tab[1]
        q2 = (
            u1 * u1 * g[0][0] + u2 * u2 * g[1][1] + u3 * u3 * g[2][2]
            + 2 * (u1 * u2 * g[0][1] + u1 * u3 * g[0][2] + u2 * u3 * g[1][2])
        )
        qh = u1 * g[0][3] + u2 * g[1][3] + u3 * g[2][3]
        t1, t2 = det * den * q2, det * den * qh
        if s:
            t1 -= c * sum(map(mul, x, [q[j] for j in s]))
            t2 -= c * sum(map(mul, x, [hh[j] for j in s]))
        if t1 <= 0 or t2 <= 0:
            return (None, False, None, False)
        wsup = tuple([j for j in s if q[j] < 0])
        return (
            attained[0].setdefault(wsup, wsup), 0 in q,
            attained[1].setdefault(s, s), bool(zero),
        )

    samples = []
    for level in range(res):
        for off in (1, 2):
            u3 = 3 * (res - level) - 2 * off
            for i in range(level + 1 if u3 > 0 else 0):
                u1, u2 = 3 * i + off, 3 * (level - i) + off
                samples.append((u1, u2, u3, *classify(u1, u2, u3)))
    return tuple(samples), tuple(frozenset(a) for a in attained)
