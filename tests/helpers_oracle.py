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
"""

from fractions import Fraction
from itertools import combinations

from k3chambers import chambers, linalg, model
from k3chambers.chambers import ChamberRecord, InclusionVerdict, InteriorInclusionVerdict
from k3chambers.model import SurfaceModel


def _subsets(n: int):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def weyl_records_exhaustive(m: SurfaceModel) -> tuple[ChamberRecord, ...]:
    """The Weyl atlas records by the exhaustive 2^n loop: one sign system on
    all the curves per pattern, witnessed by that system's sample."""
    records = []
    for s in _subsets(model.curve_count(m)):
        res = linalg.fm_feasible(chambers.weyl_sign_system(m, s))
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
    for t_set in chambers.negative_definite_subsets(m):
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
