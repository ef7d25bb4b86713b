"""Exact rational linear algebra kernels.

No floating point is used anywhere: the API speaks ``fractions.Fraction``
and the kernels work in integers.  Matrices are dense tuples of tuples,
vectors are tuples.  One fraction-free (Bareiss) elimination, ``_eliminate``,
gives the solve, determinant, inverse and rank.  Its one reader for
negative definite matrices, ``solve_negative_definite``, decides definiteness
by Sylvester's test on the pivots of ``[s | b_1 ... b_k]`` and reads the k
solutions off the same elimination; ``is_negative_definite`` is its k = 0
call.  ``signature`` keeps its own symmetric elimination, whose step at a
zero diagonal is a congruence, not an elimination step.  The module ends with
an exact Fourier-Motzkin feasibility test for systems of strict linear sign
constraints.  Its inner loops run on plain integers: each row's primitive
integer form (``SignConstraint.integer_row``), the combination and dedupe of
rows, the back-substitution, which makes one Fraction per coordinate of the
sample, and the walk of an infeasibility certificate back to the input rows.
The sample and the certificate are still checked against the rational rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import NotSymmetric, SingularMatrix, SizeLimit, require

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def vec(entries: Iterable) -> Vec:
    """Build an exact rational vector from ints/strings/Fractions.  A
    Fraction is kept as it is (it is immutable); anything else, a Fraction
    subclass included, goes through ``Fraction()``."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    """Build an exact rational matrix; rows must have equal length."""
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix rows")
    return m


def is_symmetric(m: Mat) -> bool:
    n = len(m)
    if any(len(r) != n for r in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def _require_symmetric(m: Mat) -> None:
    if not is_symmetric(m):
        raise NotSymmetric("matrix is not symmetric")


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vec:
    return tuple(c * x for x in v)


def over_common_denominator(v: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integers ``w`` and the least ``den > 0`` with ``v == w / den``."""
    v = tuple(v)
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def _eliminate(
    rows: Sequence[Sequence[Fraction]], n: int
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on the first
    ``n`` columns of rational ``rows``, scaled to integers over one common
    denominator ``q``.  The pivot is the first nonzero entry at or below
    the next pivot row; a column without one is skipped, so the pivot count
    is the rank.  Every other row r becomes ``(p * r - r[col] * pivot_row)
    / prev`` for the previous pivot ``prev``; the division is exact because
    r is rescaled at every step, also when r[col] is 0.  Without a swap,
    pivot k is the leading (k+1)-minor of ``q * rows``.  For n rows of rank
    n, the first n columns end as the last pivot times the identity, and
    that pivot is ``(-1)^swaps q^n`` times their determinant.

    Returns the integer rows, the pivots, the swap count and ``q``.
    """
    width = len(rows[0]) if rows else 0
    ints, q = over_common_denominator(x for row in rows for x in row)
    a = [list(ints[i * width:(i + 1) * width]) for i in range(len(rows))]
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for col in range(n):
        k = piv = len(pivots)
        while piv < len(a) and not a[piv][col]:
            piv += 1
        if piv == len(a):
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            swaps += 1
        top = a[k]
        p = top[col]
        for r, row in enumerate(a):
            if r != k:
                f = row[col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(p)
        prev = p
    return a, pivots, swaps, q


def _require_square(s: Mat) -> int:
    if any(len(row) != len(s) for row in s):
        raise ValueError("matrix is not square")
    return len(s)


def solve_linear(s: Mat, b: Sequence[Fraction]) -> Vec:
    """Solve ``s @ x = b`` exactly by eliminating ``[s | b]``.  Raises
    SingularMatrix when det(s) = 0; the empty system has the empty solution.
    """
    n = _require_square(s)
    if len(b) != n:
        raise ValueError("right-hand side dimension mismatch")
    a, pivots, _, _ = _eliminate([(*row, rhs) for row, rhs in zip(s, b)], n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(a))


def determinant(s: Mat) -> Fraction:
    """Exact determinant: ``(-1)^swaps * last pivot / q^n``."""
    n = _require_square(s)
    _, pivots, swaps, q = _eliminate(s, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction((-1) ** swaps * (pivots[-1] if n else 1), q**n)


def solve_negative_definite(
    s: Mat, rhs: Sequence[Sequence[Fraction]] = ()
) -> tuple[Vec, ...] | None:
    """The solutions of ``s @ x = b`` for each b in ``rhs`` when the
    symmetric matrix s is negative definite, and None when it is not, from
    one elimination of ``[s | b_1 ... b_k]``.  Sylvester's test: every
    leading k-minor has sign (-1)^k.  With no row swap the pivots are these
    minors (times q^k > 0), and a swap means a zero minor.  The right-hand
    sides enter neither: the pivot choice reads only the first n columns,
    and they change q only.  The 0x0 matrix is negative definite
    (vacuously).
    """
    _require_symmetric(s)
    n = len(s)
    if any(len(b) != n for b in rhs):
        raise ValueError("right-hand side dimension mismatch")
    # row i of [s | b_1 ... b_k] is column i of s, as s is symmetric, and
    # the i-th entries of the b's
    a, pivots, swaps, _ = _eliminate(list(zip(*s, *rhs)), n)
    if len(pivots) < n or swaps or any((-1) ** k * p >= 0 for k, p in enumerate(pivots)):
        return None
    return tuple([
        tuple([Fraction(row[n + c], row[i]) for i, row in enumerate(a)])
        for c in range(len(rhs))
    ])


def is_negative_definite(s: Mat) -> bool:
    """Whether the symmetric matrix s is negative definite: the
    ``solve_negative_definite`` test with no right-hand side."""
    return solve_negative_definite(s) is not None


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix of any shape."""
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def signature(s: Mat) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) by exact symmetric elimination.

    Zero diagonal pivots are handled by the standard congruence trick
    e_i <- e_i + e_j, which preserves inertia.
    """
    _require_symmetric(s)
    n = len(s)
    a = [list(row) for row in s]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        p = next((i for i in active if a[i][i] != 0), None)
        if p is None:
            pair = next(
                ((i, j) for i in active for j in active if j > i and a[i][j] != 0),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for c in active:
                a[i][c] += a[j][c]
            for r in active:
                a[r][i] += a[r][j]
            continue
        d = a[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(p)
        for i in active:
            f = a[i][p] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[p][j]
    return (pos, neg, zero)


def inverse(s: Mat) -> Mat:
    """Exact inverse from one elimination of ``[s | I]``, which ends at
    ``(p I | p s^-1)`` for the last pivot p.  Raises SingularMatrix when
    det(s) = 0."""
    n = _require_square(s)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a, pivots, _, _ = _eliminate([(*r, *e) for r, e in zip(s, eye)], n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(a))


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility for strict sign systems
# ---------------------------------------------------------------------------

SENSE_LT = "<"
SENSE_GT = ">"

# internal row form: (coeffs: int tuple, const: int, strict: bool, origins: int,
# derivation) meaning  coeffs . x + const  >= 0  (or > 0 when strict).  origins
# is a bitmask over the system's input rows for Chernikov's rule; it is not a
# derivation (see _dedupe).  The derivation says how the row was built: an int
# for an input row, i for strict row i and ~v for the nonnegativity row of
# variable v, or (lam, mu, g, low, up) for the row (lam * low + mu * up) / g
_Row = tuple[tuple[int, ...], int, bool, int, object]


@dataclass(frozen=True)
class SignConstraint:
    """One strict constraint ``coeffs . x + constant  <sense>  0``."""

    coeffs: Vec
    constant: Fraction
    sense: str

    @property
    def sign(self) -> int:
        """1 for ``>`` and -1 for ``<``: the row times its sign is ``> 0``."""
        return 1 if self.sense == SENSE_GT else -1

    @cached_property
    def integer_row(self) -> tuple[tuple[int, ...], int, bool]:
        """The constraint as a primitive integer row ``a . x + c > 0``
        (negated for ``<``), computed once per row and checked to be a
        positive multiple of the rational row.  Both run on the entries'
        numerators and denominators, with no Fraction arithmetic: for the
        integer entries r, the rational entries n / d and the first nonzero
        rational entry p, the check is ``r_k d_k n_p == r_p d_p n_k`` for
        every k and ``sign * n_p * r_p > 0``."""
        sign = self.sign
        entries = (*self.coeffs, self.constant)
        nums = [x.numerator for x in entries]
        dens = [x.denominator for x in entries]
        den = math.lcm(*dens)
        ints = [sign * p * (den // d) for p, d in zip(nums, dens)]
        g = math.gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        pivot = next((k for k, p in enumerate(nums) if p), None)
        if pivot is None:
            holds = not any(ints)
        else:
            top, scaled = nums[pivot], ints[pivot] * dens[pivot]
            holds = sign * top * ints[pivot] > 0 and all(
                r * d * top == scaled * p for r, p, d in zip(ints, nums, dens)
            )
        require(holds, "SignConstraint.integer_row: not a positive multiple of the row")
        return (tuple(ints[:-1]), ints[-1], True)


@dataclass(frozen=True)
class LinearSystemFeasibility:
    """A finite system of strict affine sign constraints over rational
    variables, optionally with nonnegativity on a subset of the variables."""

    num_vars: int
    strict_rows: tuple[SignConstraint, ...]
    nonneg_vars: frozenset[int] = frozenset()


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Nonnegative integer multipliers that prove a sign system empty
    (Motzkin's transposition theorem).  With strict row i oriented as
    ``sign_i * (coeffs . x + constant) > 0`` (``sign_i = -1`` for ``<``),
    the sum of ``strict[i]`` times row i and ``nonneg[v]`` times
    ``x_v >= 0`` has all coefficients zero and a constant that is negative,
    or zero with some ``strict[i] > 0``, so no point satisfies the system."""

    strict: tuple[int, ...]  # one per strict row
    nonneg: tuple[int, ...]  # one per variable, zero off the nonneg variables

    @property
    def support(self) -> tuple[int, ...]:
        """The strict rows with a positive multiplier; every system that
        contains these rows (and the same nonnegativity rows) is empty."""
        return tuple(i for i, y in enumerate(self.strict) if y)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    sample: Vec | None
    certificate: InfeasibilityCertificate | None = None


class _Infeasible(Exception):
    """Raised with the derivation of a row 0 . x + c > 0 (or >= 0) that no
    point satisfies."""

    def __init__(self, derivation) -> None:
        super().__init__()
        self.derivation = derivation


def _dedupe(rows: Iterable[_Row]) -> list[_Row]:
    # Keep only the strongest row per direction: smallest constant, strict
    # beating non-strict at equal constant, with the derivation of that row.
    # Its origins become the intersection of the origins of every row of that
    # direction, which keeps Chernikov's rule (see _combine) sound: by
    # induction over the stages, every row that the rule alone would keep is
    # implied by a kept row whose origins are a subset of its own.  Combining
    # two such rows gives the same direction, a constant at least as strong
    # and no more origins, so the rule never drops it.  Keeping the strongest
    # row's own origins instead can drop the only row that carries a bound.
    # The intersected mask is therefore no record of how the row was built.
    # A kept row is the tuple given; a new one is built only when its mask
    # shrinks.
    best: dict[tuple[int, ...], _Row] = {}
    for row in rows:
        a, c, strict, origins, _ = row
        cur = best.get(a)
        if cur is None:
            best[a] = row
            continue
        common = origins & cur[3]
        if c < cur[1] or (c == cur[1] and strict and not cur[2]):
            best[a] = row if common == origins else (a, c, strict, common, row[4])
        elif common != cur[3]:
            best[a] = (a, cur[1], cur[2], common, cur[4])
    return list(best.values())


def _combine(low: _Row, up: _Row, v: int, limit: int) -> _Row | None:
    # Chernikov's rule: after k eliminations a row combined from more than
    # k + 1 input rows is a positive combination of rows with fewer origins,
    # so it is redundant and never built; limit is k + 1
    origins = low[3] | up[3]
    if origins.bit_count() > limit:
        return None
    la, lc, ls, _, _ = low
    ua, uc, us, _, _ = up
    lam, mu = -ua[v], la[v]  # both > 0
    coeffs = [lam * x + mu * y for x, y in zip(la, ua)]
    const = lam * lc + mu * uc
    strict = ls or us
    g = math.gcd(const, *coeffs) or 1
    if g > 1:
        coeffs = [x // g for x in coeffs]
        const //= g
    derivation = (lam, mu, g, low, up)
    if not any(coeffs):
        if const > 0 or (const == 0 and not strict):
            return None
        raise _Infeasible(derivation)
    return (tuple(coeffs), const, strict, origins, derivation)


def _certificate(problem: LinearSystemFeasibility, derivation) -> InfeasibilityCertificate:
    """Walk a contradicting row's derivation back to multipliers over the
    input rows, in integers over one denominator per derived row, then
    check them exactly against the rational rows."""
    rows = problem.strict_rows
    n = problem.num_vars
    memo: dict[int, tuple[dict[int, int], int]] = {}

    def expand(d) -> tuple[dict[int, int], int]:
        # integer multipliers over the input rows, keyed as in the
        # derivations, and a denominator e > 0: the combination of the
        # integer input rows with the multipliers over e is the row d built
        if isinstance(d, int):
            return {d: 1}, 1
        found = memo.get(id(d))
        if found is None:
            lam, mu, g, low, up = d
            (yl, el), (yu, eu) = expand(low[4]), expand(up[4])
            # (lam * low + mu * up) / g over the denominator g * el * eu
            y = {key: lam * eu * x for key, x in yl.items()}
            for key, x in yu.items():
                y[key] = y.get(key, 0) + mu * el * x
            e = g * el * eu
            r = math.gcd(e, *y.values())
            found = memo[id(d)] = ({key: x // r for key, x in y.items()}, e // r)
        return found

    y, e = expand(derivation)
    strict = [Fraction(0)] * len(rows)
    nonneg = [Fraction(0)] * n
    for key, x in y.items():
        if key >= 0:
            # integer_row is k times the oriented rational row; read k at
            # the row's first nonzero entry (a wrong k fails the check)
            row = rows[key]
            a, c, _ = row.integer_row
            pairs = zip((*a, c), (*row.coeffs, row.constant))
            strict[key] = Fraction(x, e) * next((p / (row.sign * q) for p, q in pairs if q), 1)
        else:
            nonneg[~key] = Fraction(x, e)
    den = math.lcm(*(x.denominator for x in (*strict, *nonneg)))
    cert = InfeasibilityCertificate(
        tuple(int(x * den) for x in strict), tuple(int(x * den) for x in nonneg)
    )
    _check_certificate(problem, cert)
    return cert


def _check_certificate(problem: LinearSystemFeasibility, cert: InfeasibilityCertificate) -> None:
    """Sum the certificate's multiples of the rational rows, in exact
    arithmetic, and require the sum to be a row ``0 . x + c > 0`` that no
    point satisfies: ``c < 0``, or ``c == 0`` with a strict row used."""
    n = problem.num_vars
    rows = problem.strict_rows
    require(
        len(cert.strict) == len(rows)
        and len(cert.nonneg) == n
        and all(y >= 0 for y in (*cert.strict, *cert.nonneg))
        and all(cert.nonneg[v] == 0 for v in range(n) if v not in problem.nonneg_vars),
        "fm_feasible: infeasibility certificate has a wrong multiplier",
    )
    coeffs = [Fraction(y) for y in cert.nonneg]
    const = Fraction(0)
    for y, row in zip(cert.strict, rows):
        if y:
            y *= row.sign
            for j, x in enumerate(row.coeffs):
                coeffs[j] += y * x
            const += y * row.constant
    require(
        not any(coeffs) and (const < 0 or (const == 0 and any(cert.strict))),
        "fm_feasible: infeasibility certificate does not sum to a contradiction",
    )


# largest row count one Fourier-Motzkin stage may keep, and largest number
# of lower-by-upper pairs it may combine: far above the Weyl systems of K3
# models (at most 223 rows and 924 pairs seen), far below a runaway
# elimination (one 6-variable system reaches 713,581 rows)
MAX_FM_ROWS = 100_000


def fm_feasible(problem: LinearSystemFeasibility) -> FeasibilityResult:
    """Exact Fourier-Motzkin elimination with native strict inequalities.

    Variables are eliminated in decreasing constraint-occurrence order
    (ties by lowest index).  Combined rows that Chernikov's rule shows to be
    redundant are never built, which keeps the row count from growing doubly
    exponentially with the number of variables.  Each row enters in the
    integer form its SignConstraint caches, so a row shared by many systems
    is normalized once, and the elimination runs on plain integers.  When
    the system is feasible, a rational sample point is reconstructed by
    back-substituting interval midpoints in integers over a common
    denominator, each one a reduced integer pair, then checked exactly
    against every original rational row (not against the cached integer
    forms) and every nonnegativity bound.  When it is infeasible, the
    contradicting row's derivation is walked back, in integers, to an
    InfeasibilityCertificate over the input rows, checked exactly against
    the rational rows in the same way.  A stage that would combine more
    than ``MAX_FM_ROWS`` pairs of rows, or keep more than ``MAX_FM_ROWS``
    rows, raises SizeLimit.
    """
    n = problem.num_vars
    for row in problem.strict_rows:
        if len(row.coeffs) != n:
            raise ValueError("constraint references undeclared variables")
        if row.sense not in (SENSE_LT, SENSE_GT):
            raise ValueError("unknown sense %r" % (row.sense,))
    if any(v < 0 or v >= n for v in problem.nonneg_vars):
        raise ValueError("nonneg variable index out of range")

    try:
        rows: list[_Row] = []
        for i, row in enumerate(problem.strict_rows):
            a, c, strict = row.integer_row
            if any(a):
                rows.append((a, c, strict, 1 << len(rows), i))
            elif c <= 0:
                raise _Infeasible(i)
        for v in sorted(problem.nonneg_vars):
            rows.append(((0,) * v + (1,) + (0,) * (n - v - 1), 0, False, 1 << len(rows), ~v))
        rows = _dedupe(rows)

        stages: list[tuple[int, list[_Row], list[_Row]]] = []
        remaining = set(range(n))
        while remaining:
            # occurrences per variable, counted down the columns
            columns = zip(*(r[0] for r in rows))
            occ = [len(rows) - col.count(0) for col in columns] or [0] * n
            v = max(sorted(remaining), key=occ.__getitem__)
            # one pass, keeping row order: the passthrough rows open the next stage
            lowers: list[_Row] = []
            uppers: list[_Row] = []
            new: list[_Row] = []
            for r in rows:
                if r[0][v] > 0:
                    lowers.append(r)
                elif r[0][v] < 0:
                    uppers.append(r)
                else:
                    new.append(r)
            if len(lowers) * len(uppers) > MAX_FM_ROWS:
                raise SizeLimit(
                    "Fourier-Motzkin stage would combine %d row pairs (at most %d)"
                    % (len(lowers) * len(uppers), MAX_FM_ROWS)
                )
            limit = len(stages) + 2  # this stage makes k = len(stages) + 1 eliminations
            stages.append((v, lowers, uppers))
            for low in lowers:
                for up in uppers:
                    c = _combine(low, up, v, limit)
                    if c is not None:
                        new.append(c)
            rows = _dedupe(new)
            if len(rows) > MAX_FM_ROWS:
                raise SizeLimit(
                    "Fourier-Motzkin stage keeps %d rows (at most %d)" % (len(rows), MAX_FM_ROWS)
                )
            remaining.discard(v)
    except _Infeasible as contradiction:
        return FeasibilityResult(False, None, _certificate(problem, contradiction.derivation))

    # back-substitution in integers: the sample is num / den with den > 0,
    # and a variable not yet assigned has numerator 0
    num = [0] * n
    den = 1
    for v, lowers, uppers in reversed(stages):
        # bounds on den * x_v, each as (p, q, strict) meaning p / q with q > 0
        lo: tuple[int, int, bool] | None = None
        hi: tuple[int, int, bool] | None = None
        for a, c, strict, _, _ in lowers:
            p, q = -(c * den + sum(map(mul, a, num))), a[v]
            if lo is None or p * lo[1] > lo[0] * q:
                lo = (p, q, strict)
            elif p * lo[1] == lo[0] * q and strict:
                lo = (p, q, True)
        for a, c, strict, _, _ in uppers:
            p, q = c * den + sum(map(mul, a, num)), -a[v]
            if hi is None or p * hi[1] < hi[0] * q:
                hi = (p, q, strict)
            elif p * hi[1] == hi[0] * q and strict:
                hi = (p, q, True)
        # den * x_v as the reduced pair p / q, q > 0
        if lo is None and hi is None:
            p, q = 0, 1
        elif hi is None:
            p, q = lo[0] + den * lo[1], lo[1]
        elif lo is None:
            p, q = hi[0] - den * hi[1], hi[1]
        else:
            # the bounds lo[0] / lo[1] and hi[0] / hi[1] over the denominator
            # lo[1] * hi[1]; the midpoint is their mean
            low, high = lo[0] * hi[1], hi[0] * lo[1]
            require(
                low < high or (low == high and not lo[2] and not hi[2]),
                "fm_feasible: empty interval after feasible elimination",
            )
            p, q = low + high, 2 * lo[1] * hi[1]
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q > 1:
            den *= q
            num = [y * q for y in num]
        num[v] = p

    # every original row, checked exactly from its rational coefficients:
    # value = scale * den * (coeffs . sample + constant) with scale, den > 0;
    # a zero coefficient adds nothing
    for row in problem.strict_rows:
        terms = [(c.numerator, c.denominator, y) for c, y in zip(row.coeffs, num) if c]
        terms.append((row.constant.numerator, row.constant.denominator, den))
        scale = math.lcm(*[d for _, d, _ in terms])
        value = sum([p * (scale // d) * y for p, d, y in terms])
        require(
            value < 0 if row.sense == SENSE_LT else value > 0,
            "fm_feasible: sample point violates an original constraint",
        )
    require(
        all(num[v] >= 0 for v in problem.nonneg_vars),
        "fm_feasible: sample point violates nonnegativity",
    )
    return FeasibilityResult(True, tuple(Fraction(y, den) for y in num))
