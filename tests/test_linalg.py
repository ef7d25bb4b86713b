import math
from fractions import Fraction
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers_oracle import inverse_is_nonpositive, sympy_matrix
from k3chambers import linalg
from k3chambers.errors import (
    InvariantViolated,
    NotSymmetric,
    SingularMatrix,
    SizeLimit,
)
from k3chambers.gallery import random_ade_gram
from k3chambers.linalg import (
    LinearSystemFeasibility,
    SignConstraint,
    fm_feasible,
    is_negative_definite,
    signature,
    solve_linear,
)

A2 = linalg.mat([[-2, 1], [1, -2]])
QUARTIC = linalg.mat([[-2, 1, 2], [1, -2, 2], [2, 2, -2]])
DOUBLE_COVER = linalg.mat([[-2, 0, 2], [0, -2, 2], [2, 2, -2]])

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def sym_matrix(n, entries):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda xs: tuple(
            tuple(xs[i * n + j] if j >= i else xs[j * n + i] for j in range(n))
            for i in range(n)
        )
    )


# ---------------------------------------------------------------------------
# solve_linear
# ---------------------------------------------------------------------------


def test_solve_hand_checked_2x2():
    assert solve_linear(A2, linalg.vec([-2, -2])) == linalg.vec([2, 2])
    assert solve_linear(A2, linalg.vec([-3, -3])) == linalg.vec([3, 3])


def test_solve_trivial_1x1():
    assert solve_linear(linalg.mat([[-2]]), linalg.vec([0])) == (Fraction(0),)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve_linear(linalg.mat([[-2, 2], [2, -2]]), linalg.vec([1, 1]))


def test_solve_empty_system():
    assert solve_linear((), ()) == ()


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(rationals, min_size=n, max_size=n),
)))
def test_solve_then_multiply_recovers_rhs(data):
    rows, b = data
    s = linalg.mat(rows)
    assume(linalg.determinant(s) != 0)
    x = solve_linear(s, linalg.vec(b))
    assert linalg.mat_vec(s, x) == linalg.vec(b)


# ---------------------------------------------------------------------------
# is_negative_definite
# ---------------------------------------------------------------------------


def test_nd_examples():
    assert is_negative_definite(A2)
    assert not is_negative_definite(linalg.mat([[-2, 2], [2, -2]]))  # det 0
    assert not is_negative_definite(QUARTIC)  # det 18 > 0
    assert linalg.determinant(QUARTIC) == 18
    assert is_negative_definite(())  # empty set, vacuously


def test_nd_requires_symmetry():
    with pytest.raises(NotSymmetric):
        is_negative_definite(linalg.mat([[-2, 1], [0, -2]]))


def brute_force_nd(s):
    n = len(s)
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            sub = tuple(tuple(s[i][j] for j in idx) for i in idx)
            det = linalg.determinant(sub)
            if (-1) ** k * det <= 0:
                return False
    return True


@given(st.integers(1, 5).flatmap(lambda n: sym_matrix(n, st.integers(-4, 4).map(Fraction))))
def test_nd_matches_all_principal_minors(s):
    assert is_negative_definite(s) == brute_force_nd(s)


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------


def test_signature_examples():
    assert signature(QUARTIC) == (1, 2, 0)
    assert signature(linalg.mat([[-2]])) == (0, 1, 0)
    assert signature(DOUBLE_COVER) == (1, 2, 0)


def test_signature_hyperbolic_plane():
    assert signature(linalg.mat([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_zero_matrix():
    assert signature(linalg.mat([[0, 0], [0, 0]])) == (0, 0, 2)


@given(st.integers(1, 5).flatmap(lambda n: sym_matrix(n, st.integers(-4, 4).map(Fraction))))
def test_signature_counts_sum_to_dim(s):
    pos, neg, zero = signature(s)
    assert pos + neg + zero == len(s)
    assert (neg == len(s)) == is_negative_definite(s)


# ---------------------------------------------------------------------------
# the lemma: a negative definite Gram with off-diagonal entries >= 0 has an
# inverse <= 0, checked with sympy alone
# ---------------------------------------------------------------------------


def test_inverse_check_examples():
    assert inverse_is_nonpositive(A2)
    inv = linalg.inverse(A2)
    assert inv == linalg.mat([["-2/3", "-1/3"], ["-1/3", "-2/3"]])
    assert inverse_is_nonpositive(linalg.mat([[-2]]))
    # a negative off-diagonal entry breaks the lemma
    assert not inverse_is_nonpositive(linalg.mat([[-2, -1], [-1, -2]]))


@pytest.mark.parametrize("seed", range(60))
def test_inverse_check_on_random_ade_grams(seed):
    g = random_ade_gram(seed)
    assert is_negative_definite(g) and sympy_matrix(g).is_negative_definite
    assert all(v >= 0 for i, row in enumerate(g) for j, v in enumerate(row) if i != j)
    assert inverse_is_nonpositive(g)


# ---------------------------------------------------------------------------
# the elimination kernel: pinned cases, and sympy as an independent oracle
# ---------------------------------------------------------------------------

_E8_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)}
NEG_E8 = linalg.mat(
    [[-2 if i == j else int((min(i, j), max(i, j)) in _E8_EDGES) for j in range(8)]
     for i in range(8)]
)
THIRDS = linalg.mat([["-1/2", "1/3", 0], ["1/3", "-1/2", "1/3"], [0, "1/3", "-1/2"]])


def test_kernel_swap_at_the_first_step():
    hyperbolic = linalg.mat([[0, 1], [1, 0]])
    _, pivots, swaps, q = linalg._eliminate(hyperbolic, 2)
    assert (pivots, swaps, q) == ([1, 1], 1, 1)
    assert linalg.determinant(hyperbolic) == -1
    assert not is_negative_definite(hyperbolic)
    assert linalg.inverse(hyperbolic) == hyperbolic
    assert solve_linear(hyperbolic, linalg.vec([3, 4])) == linalg.vec([4, 3])


def test_kernel_swap_hides_alternating_pivots():
    # after the swap the pivots read -1, 1, yet det = -1: not negative definite
    s = linalg.mat([[0, -1], [-1, -2]])
    assert linalg._eliminate(s, 2)[1:3] == ([-1, 1], 1)
    assert linalg.determinant(s) == -1
    assert not is_negative_definite(s)
    assert signature(s) == (1, 1, 0)


def test_kernel_negated_e8():
    assert is_negative_definite(NEG_E8)
    assert linalg.determinant(NEG_E8) == 1
    inv = linalg.inverse(NEG_E8)
    assert all(x.denominator == 1 and x <= -1 for row in inv for x in row)
    assert linalg.mat_vec(NEG_E8, solve_linear(NEG_E8, inv[7])) == inv[7]
    assert linalg.rank(NEG_E8) == 8


def test_kernel_rank_skips_a_zero_leading_column():
    corners = linalg.mat([[0, 1, 0, 2], [0, 2, 1, 4], [0, 1, 1, 2]])
    assert linalg.rank(corners) == 2
    assert linalg.rank(linalg.mat([[0, 0], [0, 0]])) == 0
    assert linalg.rank(()) == 0


def test_kernel_halves_and_thirds():
    _, pivots, swaps, q = linalg._eliminate(THIRDS, 3)
    assert (pivots, swaps, q) == ([-3, 5, -3], 0, 6)
    assert is_negative_definite(THIRDS)
    assert linalg.determinant(THIRDS) == Fraction(-1, 72)
    assert linalg.inverse(THIRDS) == linalg.mat([[-10, -12, -8], [-12, -18, -12], [-8, -12, -10]])
    assert solve_linear(THIRDS, linalg.vec([1, "1/2", 0])) == linalg.vec([-16, -21, -14])
    assert linalg.determinant(linalg.mat([["1/2", "1/3"], ["1/3", "1/2"]])) == Fraction(5, 36)


def test_kernel_rejects_non_square():
    for kernel in (linalg.determinant, linalg.inverse):
        with pytest.raises(ValueError):
            kernel(linalg.mat([[1, 2]]))


def _sympy_matrix(m, cols):
    sympy = pytest.importorskip("sympy")
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
    return sympy.Matrix(len(m), cols, entries)


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


mixed_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _rational_matrices(draw, square=False):
    """Rational r x c matrices with mixed denominators; about half are a
    product of r x k and k x c factors with k < min(r, c), so singular or
    rank deficient."""
    r = draw(st.integers(0, 5))
    c = r if square else draw(st.integers(0, 5))

    def block(rows, cols):
        row = st.lists(mixed_rationals, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    if min(r, c) == 0 or draw(st.booleans()):
        return linalg.mat(block(r, c)), c
    k = draw(st.integers(0, min(r, c) - 1))
    left, right = block(r, k), block(k, c)
    product = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                for j in range(c)] for i in range(r)]
    return linalg.mat(product), c


@settings(max_examples=150)
@given(_rational_matrices())
def test_rank_agrees_with_sympy(data):
    m, cols = data
    assert linalg.rank(m) == _sympy_matrix(m, cols).rank()


@settings(max_examples=150)
@given(_rational_matrices(square=True), st.lists(mixed_rationals, min_size=5, max_size=5))
@example((linalg.mat([[0, 1], [1, 0]]), 2), [Fraction(1)] * 5)
@example((linalg.mat([["1/2", "1/3"], [3, 2]]), 2), [Fraction(1)] * 5)
@example(((), 0), [Fraction(1)] * 5)
def test_det_adjugate_inverse_solve_agree_with_sympy(data, rhs):
    s, n = data
    b = tuple(rhs[:n])
    ref = _sympy_matrix(s, n)
    det = _fraction(ref.det())
    assert linalg.determinant(s) == det
    if det == 0:
        with pytest.raises(SingularMatrix):
            linalg.inverse(s)
        with pytest.raises(SingularMatrix):
            solve_linear(s, b)
        return
    if n == 0:
        assert linalg.inverse(s) == () == solve_linear(s, b)
        return
    # the inverse against sympy's adjugate over its determinant
    adj = tuple(tuple(_fraction(x) for x in ref.adjugate().row(i)) for i in range(n))
    assert linalg.inverse(s) == tuple(tuple(x / det for x in row) for row in adj)
    x = ref.LUsolve(_sympy_matrix([[y] for y in b], 1))
    assert solve_linear(s, b) == tuple(_fraction(y) for y in x)


def _inertia_by_descartes(s):
    """(positive, negative, zero) eigenvalue counts from the characteristic
    polynomial: its roots are real for a symmetric matrix, so Descartes'
    rule of signs counts the positive roots exactly, and those of p(-x)
    the negative ones."""
    sympy = pytest.importorskip("sympy")
    coeffs = _sympy_matrix(s, len(s)).charpoly(sympy.Symbol("x")).all_coeffs()[::-1]
    zero = next(i for i, c in enumerate(coeffs) if c != 0)
    coeffs = coeffs[zero:]

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    negated = [-c if i % 2 else c for i, c in enumerate(coeffs)]
    return changes(coeffs), changes(negated), zero


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(lambda n: sym_matrix(n, mixed_rationals)))
@example(linalg.mat([[0, 1], [1, 0]]))
@example(linalg.mat([[0, 0], [0, 0]]))
def test_signature_agrees_with_charpoly_and_descartes(s):
    inertia = _inertia_by_descartes(s)
    assert signature(s) == inertia
    assert is_negative_definite(s) == (inertia[1] == len(s))


@st.composite
def _symmetric_with_rhs(draw):
    """A symmetric rational matrix, negative definite by construction
    (-(M^T M) - I) about half the time, and up to three right-hand sides."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        s = draw(sym_matrix(n, mixed_rationals))
    else:
        entries = st.lists(mixed_rationals, min_size=n, max_size=n)
        m = draw(st.lists(entries, min_size=n, max_size=n))
        s = linalg.mat(
            [[-sum((m[t][i] * m[t][j] for t in range(n)), Fraction(int(i == j)))
              for j in range(n)] for i in range(n)]
        )
    rhs = draw(st.lists(st.lists(mixed_rationals, min_size=n, max_size=n), max_size=3))
    return s, [linalg.vec(b) for b in rhs]


@settings(max_examples=150)
@given(_symmetric_with_rhs())
@example((linalg.mat([[0, -1], [-1, -2]]), [linalg.vec([1, 2])]))
@example(((), [(), ()]))
def test_negative_definite_solve_agrees_with_sympy(data):
    """Definiteness from the inertia of the characteristic polynomial, and
    each solution from sympy's solve, whatever the right-hand sides."""
    s, rhs = data
    n = len(s)
    sols = linalg.solve_negative_definite(s, rhs)
    nd = _inertia_by_descartes(s)[1] == n
    assert (sols is not None) == nd == is_negative_definite(s)
    if not nd:
        return
    assert len(sols) == len(rhs)
    for b, x in zip(rhs, sols):
        if n:
            ref = _sympy_matrix(s, n).LUsolve(_sympy_matrix([[y] for y in b], 1))
            assert x == tuple(_fraction(y) for y in ref)
        else:
            assert x == ()


def test_negative_definite_solve_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        linalg.solve_negative_definite(linalg.mat([[-2, 1], [0, -2]]))
    for s, b in ((A2, [1]), (A2, [1, 2, 3]), ((), [1])):
        with pytest.raises(ValueError):
            linalg.solve_negative_definite(s, [linalg.vec(b)])
    assert linalg.solve_negative_definite(A2, [linalg.vec([-2, -2])]) == (linalg.vec([2, 2]),)
    assert linalg.solve_negative_definite(A2) == ()


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility
# ---------------------------------------------------------------------------


def quartic_sign_problem(signs):
    """Sign system for D = H + a1 L1 + a2 L2 + a3 C on the quartic with
    H = (2,2,2): pairings H.(L1,L2,C) = (2,2,4)."""
    h = (Fraction(2), Fraction(2), Fraction(4))
    rows = tuple(
        SignConstraint(coeffs=QUARTIC[j], constant=h[j], sense=signs[j])
        for j in range(3)
    )
    return LinearSystemFeasibility(3, rows, frozenset({0, 1, 2}))


def test_fm_feasible_weyl_pattern():
    res = fm_feasible(quartic_sign_problem(("<", "<", ">")))
    assert res.feasible
    # hand-checked solution: a = (3, 3, 0) gives D = (5,5,2), pairings (-1,-1,16)
    a = linalg.vec([3, 3, 0])
    dots = linalg.mat_vec(QUARTIC, a)
    h = linalg.vec([2, 2, 4])
    assert dots[0] + h[0] < 0 and dots[1] + h[1] < 0 and dots[2] + h[2] > 0


def test_fm_infeasible_pattern():
    # L1 < 0 and C < 0 needs the non-ND pair {L1, C}
    assert not fm_feasible(quartic_sign_problem(("<", ">", "<"))).feasible


def test_fm_empty_problem_is_feasible():
    res = fm_feasible(LinearSystemFeasibility(0, (), frozenset()))
    assert res.feasible and res.sample == ()
    res = fm_feasible(LinearSystemFeasibility(3, (), frozenset()))
    assert res.feasible and res.sample == (0, 0, 0)


def _row(coeffs, constant, sense):
    return SignConstraint(linalg.vec(coeffs), Fraction(constant), sense)


def test_fm_stage_over_the_row_budget_is_a_size_limit():
    """The polyhedral-oracle cell (W_{1}, int Z_{1,2}) of
    random_configuration(6, 6, 0.4), a model that is not hyperbolic: its
    fifth stage would combine 8,296,076 row pairs into 713,581 kept rows
    (about 30 s of work), so it stops at that stage's pair count."""
    system = LinearSystemFeasibility(6, (
        _row([-2, 0, 2, 1, 1, 2], 2, ">"),
        _row([0, -2, 1, 0, 2, 2], 3, "<"),
        _row([2, 1, -2, 0, 2, 2], 1, ">"),
        _row([1, 0, 0, -2, 1, 2], 4, ">"),
        _row([1, 2, 2, 1, -2, 0], 4, ">"),
        _row([2, 2, 2, 2, 0, -2], 3, ">"),
        _row(["-2/3", 1, 0, 0, -2, -2], "-7/3", ">"),
        _row(["-4/3", 0, 1, 0, -2, -2], "-5/3", ">"),
        _row(["2/3", 0, 0, 1, 5, 6], "16/3", ">"),
        _row([1, 0, 0, -2, 1, 2], 4, ">"),
        _row([5, 0, 0, 1, 6, 8], 12, ">"),
        _row([6, 0, 0, 2, 8, 6], 11, ">"),
    ), frozenset(range(6)))
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="8296076 row pairs"):
        fm_feasible(system)
    assert time.perf_counter() - start < 5


# pinned verdicts and samples of edge cases; a sample fixes the elimination
# order, in which ties in occurrence count go to the lowest variable index
@pytest.mark.parametrize(
    "problem,sample",
    [
        pytest.param(LinearSystemFeasibility(0, (_row([], 1, ">"),), frozenset()), (),
                     id="no-variables-true-row"),
        pytest.param(LinearSystemFeasibility(0, (_row([], 0, ">"),), frozenset()), None,
                     id="no-variables-false-row"),
        pytest.param(LinearSystemFeasibility(2, (), frozenset()), (0, 0),
                     id="no-rows-no-nonneg"),
        pytest.param(LinearSystemFeasibility(3, (), frozenset({0, 2})), (1, 0, 1),
                     id="only-nonneg"),
        pytest.param(LinearSystemFeasibility(
            2, (_row([0, 0], "1/2", ">"), _row([1, -1], 0, "<")), frozenset({0})),
            ("1/2", 1), id="zero-row-feasible"),
        pytest.param(LinearSystemFeasibility(
            2, (_row([1, 1], 1, ">"), _row([0, 0], 0, ">")), frozenset()),
            None, id="zero-row-infeasible"),
        pytest.param(LinearSystemFeasibility(
            2, (_row([0, 0], "1/3", "<"), _row([1, 0], 0, ">")), frozenset({1})),
            None, id="zero-row-infeasible-lt"),
        pytest.param(LinearSystemFeasibility(2, (
            _row([1, -1], 0, ">"), _row([1, 1], -1, "<"),
            _row([0, 1], "-1/4", ">"), _row([1, 0], -2, "<"),
        ), frozenset()), ("1/2", "3/8"), id="tie-two-variables"),
        pytest.param(LinearSystemFeasibility(3, (
            _row([1, 2, 0], -1, ">"), _row([0, 1, -3], "1/2", "<"), _row([-1, 0, 1], 2, ">"),
        ), frozenset({0, 1, 2})), ("19/12", "3/2", "7/6"), id="tie-three-variables"),
        pytest.param(LinearSystemFeasibility(
            2, (_row([1, -1], 0, ">"), _row([-1, 1], 0, ">")), frozenset()),
            None, id="tie-infeasible"),
    ],
)
def test_fm_edge_cases_keep_their_verdicts_and_samples(problem, sample):
    res = fm_feasible(problem)
    assert res.feasible == (sample is not None)
    assert res.sample == (None if sample is None else linalg.vec(sample))
    if res.feasible:
        assert _satisfies(problem, res.sample) and res.certificate is None
    else:
        assert _refutes(problem, res.certificate)


def test_fm_rejects_undeclared_variables():
    row = SignConstraint(linalg.vec([1, 2]), Fraction(0), "<")
    with pytest.raises(ValueError):
        fm_feasible(LinearSystemFeasibility(3, (row,), frozenset()))


def _satisfies(problem, point):
    for row in problem.strict_rows:
        value = linalg.dot(row.coeffs, point) + row.constant
        if row.sense == "<" and not value < 0:
            return False
        if row.sense == ">" and not value > 0:
            return False
    return all(point[v] >= 0 for v in problem.nonneg_vars)


def _refutes(problem, cert):
    """Whether the certificate's multiples of the rows, each oriented as
    "> 0" and summed here in Fractions, give all-zero coefficients and a
    constant c < 0, or c == 0 with some strict row used."""
    n = problem.num_vars
    if len(cert.strict) != len(problem.strict_rows) or len(cert.nonneg) != n:
        return False
    if any(y < 0 for y in (*cert.strict, *cert.nonneg)):
        return False
    if any(cert.nonneg[v] for v in range(n) if v not in problem.nonneg_vars):
        return False
    total = [Fraction(y) for y in cert.nonneg] + [Fraction(0)]
    for y, row in zip(cert.strict, problem.strict_rows):
        sign = 1 if row.sense == ">" else -1
        for j, x in enumerate((*row.coeffs, row.constant)):
            total[j] += sign * y * x
    const = total.pop()
    return not any(total) and (const < 0 or (const == 0 and any(cert.strict)))


def _grid_sign_patterns(gram, h, den=8, top=5):
    """Strict sign patterns of (H + sum a_i C_i) . C_j attained on the dense
    grid a_i = k/den, 0 <= k <= top*den (integer arithmetic throughout)."""
    g = [[int(x) for x in row] for row in gram]
    hd = [int(x) * den for x in h]
    attained = set()
    rng = range(top * den + 1)
    for n1 in rng:
        for n2 in rng:
            base = [hd[j] + g[j][0] * n1 + g[j][1] * n2 for j in range(3)]
            for n3 in rng:
                v0 = base[0] + g[0][2] * n3
                v1 = base[1] + g[1][2] * n3
                v2 = base[2] + g[2][2] * n3
                if v0 and v1 and v2:
                    attained.add(
                        ("<" if v0 < 0 else ">",
                         "<" if v1 < 0 else ">",
                         "<" if v2 < 0 else ">")
                    )
    return attained


@pytest.mark.parametrize(
    "gram,h",
    [
        (QUARTIC, (2, 2, 4)),
        (DOUBLE_COVER, (2, 2, 2)),
        (linalg.mat([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]), (1, 1, 1)),
    ],
)
def test_fm_agrees_with_dense_grid_search(gram, h):
    """Independent oracle: rational grid with denominators up to 8 over the
    coefficient box.  FM-infeasible patterns admit no grid point; FM-feasible
    patterns have a verified sample, and any grid hit implies feasibility."""
    h = linalg.vec(h)
    attained = _grid_sign_patterns(gram, h)
    for pattern in product("<>", repeat=3):
        rows = tuple(
            SignConstraint(coeffs=gram[j], constant=h[j], sense=pattern[j])
            for j in range(3)
        )
        problem = LinearSystemFeasibility(3, rows, frozenset({0, 1, 2}))
        res = fm_feasible(problem)
        if res.feasible:
            assert _satisfies(problem, res.sample)
        else:
            assert pattern not in attained
        if pattern in attained:
            assert res.feasible


def test_integer_row_is_the_primitive_positive_multiple():
    row = SignConstraint(linalg.vec(["1/2", "-3/4"]), Fraction(1, 3), "<")
    assert row.integer_row == ((-6, 9), -4, True)
    row = SignConstraint(linalg.vec([4, -6]), Fraction(2), ">")
    assert row.integer_row == ((2, -3), 1, True)


def _integer_row_in_fractions(row):
    """integer_row's earlier formula, in Fraction arithmetic: scale by the
    lcm of the denominators, divide by the gcd, and read the scale off the
    first nonzero entry."""
    sign = row.sign
    den = math.lcm(row.constant.denominator, *(c.denominator for c in row.coeffs))
    ints = [sign * int(c * den) for c in row.coeffs]
    ci = sign * int(row.constant * den)
    g = math.gcd(ci, *ints)
    if g > 1:
        ints = [x // g for x in ints]
        ci //= g
    rational = [sign * Fraction(x) for x in (*row.coeffs, row.constant)]
    integral = [*ints, ci]
    pivot = next((k for k, y in enumerate(rational) if y), None)
    scale = 1 if pivot is None else integral[pivot] / rational[pivot]
    assert scale > 0 and all(x == scale * y for x, y in zip(integral, rational))
    return (tuple(ints), ci, True)


_row_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(max_denominator=10**12).filter(lambda x: abs(x.numerator) < 10**15),
)


@settings(max_examples=300)
@given(
    st.lists(_row_entries, min_size=0, max_size=8),
    _row_entries,
    st.sampled_from(("<", ">")),
)
@example([], Fraction(0), "<")
@example([Fraction(0), Fraction(0)], Fraction(0), ">")
@example([Fraction(0), Fraction(3, 10**12)], Fraction(0), "<")
def test_integer_row_matches_the_fraction_formula(coeffs, constant, sense):
    row = SignConstraint(tuple(coeffs), constant, sense)
    assert row.integer_row == _integer_row_in_fractions(row)


def test_corrupted_integer_row_trips_the_sample_check():
    """The sample is checked against the rational rows, not against their
    cached integer forms: a wrong integer form is caught, not trusted."""
    problem = quartic_sign_problem(("<", "<", ">"))
    first = problem.strict_rows[0]
    a, c, strict = first.integer_row
    first.__dict__["integer_row"] = (tuple(-x for x in a), -c, strict)
    with pytest.raises(InvariantViolated, match="original constraint"):
        fm_feasible(problem)


# The oracle: the strict system is feasible exactly when the LP
#   max u  subject to  u <= s,  u <= every strict row oriented as "> 0" at
#   (x, s) with its constant multiplied by s,  the sum of all variables
#   plus s <= 1,  and every variable >= 0
# has a positive maximum, with each free x_j written as p_j - m_j; then
# x / s satisfies the system.  The origin is a vertex of this LP, so sympy's
# simplex needs no phase one.  Its phase one, reached by the earlier form of
# this oracle (max t subject to every oriented row >= t, t <= 1), reported
# 1 for the infeasible x0 < 1, x0 > 1, x0 < 2, returned points that violate
# the rows of some 5-8 variable systems, and on one 8-variable system ran
# for minutes without an answer.
def _simplex_says_feasible(problem):
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import lpmax

    n = problem.num_vars
    ps = sympy.symbols("p0:%d" % n)
    ms = [sympy.Integer(0) if v in problem.nonneg_vars else sympy.Symbol("m%d" % v)
          for v in range(n)]
    xs = [p - m for p, m in zip(ps, ms)]
    s, u = sympy.symbols("s u")
    variables = [*ps, *(m for m in ms if m != 0), s, u]
    constraints = [v >= 0 for v in variables] + [u <= s, sum(variables[:-1]) <= 1]
    for row in problem.strict_rows:
        value = sum((sympy.Rational(c.numerator, c.denominator) * x
                     for c, x in zip(row.coeffs, xs)), sympy.Integer(0))
        value += sympy.Rational(row.constant.numerator, row.constant.denominator) * s
        constraints.append(u <= (value if row.sense == ">" else -value))
    best, point = lpmax(u, constraints)
    if best <= 0:
        return False
    sample = tuple(Fraction(str(x.subs(point) / point[s])) for x in xs)
    assert _satisfies(problem, sample), "the oracle's point violates the system"
    return True


_fm_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _sign_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    rows = tuple(
        SignConstraint(
            tuple(draw(st.lists(_fm_rationals, min_size=n, max_size=n))),
            draw(_fm_rationals),
            draw(st.sampled_from(("<", ">"))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    )
    nonneg = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    return LinearSystemFeasibility(n, rows, nonneg)


@settings(max_examples=60)
@given(_sign_systems())
def test_fm_feasible_agrees_with_sympy_simplex(problem):
    res = fm_feasible(problem)
    assert res.feasible == _simplex_says_feasible(problem)
    if res.feasible:
        assert _satisfies(problem, res.sample)
    else:
        assert _refutes(problem, res.certificate)


# Weyl-shaped systems: one strict row per variable, as a Weyl sign system
# has one per curve, and nonnegativity on every variable.  These are the
# systems where Chernikov's rule prunes rows, so the verdict is checked
# against the oracle as well as by its own sample or certificate.
_weyl_entries = st.one_of(
    st.integers(min_value=-2, max_value=2).map(Fraction),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


def _weyl_shaped(n, entries, senses):
    """The system with row i = entries[i*(n+1) : (i+1)*(n+1)] (coefficients,
    then constant) and sense senses[i]."""
    rows = tuple(
        SignConstraint(tuple(entries[i * (n + 1): i * (n + 1) + n]),
                       entries[i * (n + 1) + n], senses[i])
        for i in range(n)
    )
    return LinearSystemFeasibility(n, rows, frozenset(range(n)))


@st.composite
def _weyl_shaped_systems(draw):
    n = draw(st.integers(min_value=5, max_value=8))
    entries = draw(st.lists(_weyl_entries, min_size=n * (n + 1), max_size=n * (n + 1)))
    senses = draw(st.lists(st.sampled_from(("<", ">")), min_size=n, max_size=n))
    return _weyl_shaped(n, entries, senses)


@settings(max_examples=30)
@given(_weyl_shaped_systems())
def test_fm_feasible_agrees_with_sympy_simplex_on_weyl_shaped_systems(problem):
    res = fm_feasible(problem)
    assert res.feasible == _simplex_says_feasible(problem)
    if res.feasible:
        assert _satisfies(problem, res.sample)
    else:
        assert _refutes(problem, res.certificate)


@settings(max_examples=120)
@given(st.one_of(_sign_systems(), _weyl_shaped_systems()))
@example(LinearSystemFeasibility(0, (_row([], 0, ">"),), frozenset()))
@example(LinearSystemFeasibility(0, (_row([], 1, ">"), _row([], -1, "<")), frozenset()))
@example(LinearSystemFeasibility(2, (_row([1, 1], 1, ">"), _row([0, 0], 0, "<")), frozenset()))
@example(LinearSystemFeasibility(1, (_row([0], "1/3", "<"),), frozenset({0})))
@example(LinearSystemFeasibility(1, (_row([0], "-1/3", ">"),), frozenset()))
@example(LinearSystemFeasibility(1, (_row([1], 0, "<"),), frozenset({0})))
def test_every_infeasible_verdict_carries_a_certificate(problem):
    """No oracle needed: the certificate, summed in Fractions here, is a
    proof that the system is empty, and a feasible verdict carries none."""
    res = fm_feasible(problem)
    if res.feasible:
        assert res.certificate is None and _satisfies(problem, res.sample)
    else:
        assert res.sample is None and _refutes(problem, res.certificate)
        # the certificate's rows alone already make an empty system
        kept = tuple(problem.strict_rows[i] for i in res.certificate.support)
        sub = LinearSystemFeasibility(problem.num_vars, kept, problem.nonneg_vars)
        assert not fm_feasible(sub).feasible


def test_certificate_uses_nonnegativity_rows_by_variable():
    # x1 < 0 with x1 >= 0: the nonnegativity row of x1 closes the proof
    problem = LinearSystemFeasibility(3, (_row([0, 1, 0], 0, "<"),), frozenset({0, 1}))
    res = fm_feasible(problem)
    assert not res.feasible
    assert res.certificate.strict == (1,) and res.certificate.nonneg == (0, 1, 0)
    assert res.certificate.support == (0,)


def test_corrupted_derivation_trips_the_certificate_check(monkeypatch):
    """The certificate is checked against the rational rows: a derivation
    that names a wrong multiplier is caught, not trusted."""
    real = linalg._combine

    def corrupted(low, up, v, limit):
        try:
            return real(low, up, v, limit)
        except linalg._Infeasible as contradiction:
            lam, mu, g, low, up = contradiction.derivation
            raise linalg._Infeasible((lam + 1, mu, g, low, up))

    monkeypatch.setattr(linalg, "_combine", corrupted)
    with pytest.raises(InvariantViolated, match="certificate"):
        fm_feasible(quartic_sign_problem(("<", ">", "<")))


def test_chernikov_rule_prunes_weyl_shaped_systems(monkeypatch):
    """The rule really drops rows on such systems, and the verdicts still
    agree with the oracle."""
    combine = linalg._combine
    calls = pruned = 0

    def counting(low, up, v, limit):
        nonlocal calls, pruned
        calls += 1
        pruned += (low[3] | up[3]).bit_count() > limit
        return combine(low, up, v, limit)

    monkeypatch.setattr(linalg, "_combine", counting)
    rng = random.Random(5)
    entries = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
               Fraction(-3, 2), Fraction(1, 3), Fraction(2, 3)]
    for n in (5, 6, 7, 8):
        problem = _weyl_shaped(n, [rng.choice(entries) for _ in range(n * (n + 1))],
                               [rng.choice("<>") for _ in range(n)])
        res = fm_feasible(problem)
        assert res.feasible == _simplex_says_feasible(problem)
    assert calls and pruned > calls // 4


def test_dedupe_keeps_the_strongest_row_with_the_common_origins():
    a = (1, -1)
    rows = [(a, 3, True, 0b0011, 0), ((0, 1), 0, False, 0b0100, 1), (a, 1, False, 0b0110, 2),
            (a, 1, True, 0b1010, 3)]
    assert linalg._dedupe(rows) == [(a, 1, True, 0b0010, 3), ((0, 1), 0, False, 0b0100, 1)]


def test_combine_skips_rows_with_too_many_origins():
    low, up = ((1, 2), 0, True, 0b011, 0), ((-1, 1), 1, False, 0b100, ~0)
    assert linalg._combine(low, up, 0, 3) == ((0, 3), 1, True, 0b111, (1, 1, 1, low, up))
    assert linalg._combine(low, up, 0, 2) is None
