"""Zariski decomposition of big divisor classes.

One integer engine, ``grow_support``, finds the support of the negative
part as in Bauer's proof: it starts from the curves met negatively, solves
the orthogonality system on that support, and adds one curve at a time (the
one met most negatively by the current nef candidate, the lowest index on a
tie) until the candidate meets no listed curve negatively.  The support
stays negative definite throughout; growth to a set that is not proves the
input is not big.  The engine reads each curve set through a table lookup:
``zariski_decompose`` builds the tables of its own steps, and ``plot`` keeps
one table per curve set for a whole cross-section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg, model
from .errors import ModeUnsupported, NotBig, require
from .model import DivisorClass, Mode, SurfaceModel


@dataclass(frozen=True)
class ZariskiResult:
    """D = P + N with P the nef part and N = sum of neg_coeffs[i] * C_i.

    neg_set is the support of N; null_set is the set of listed curves that P
    pairs to zero with (always a superset of neg_set); volume is P^2."""

    nef_part: DivisorClass
    neg_coeffs: tuple[tuple[int, Fraction], ...]
    neg_set: tuple[int, ...]
    null_set: tuple[int, ...]
    volume: Fraction


@dataclass(frozen=True)
class BignessCheck:
    big: bool
    decomposition: ZariskiResult | None
    reason: str | None


def support_table(k: tuple[tuple[int, ...], ...], s: tuple[int, ...]):
    """The table of the curve set s for the integer curve Gram ``K`` of
    ``SurfaceModel.integer_curve_gram``: ``(inv, den, cols)`` with
    ``K_s^-1 = inv / den`` (den > 0) and ``cols[i]`` the entries ``K_ij``,
    j in s, of every curve i; or None when ``K_s`` is not negative
    definite.  One elimination decides both."""
    sols = linalg.solve_negative_definite(
        tuple(tuple(k[i][j] for j in s) for i in s),
        [[int(i == j) for j in s] for i in s],
    )
    if sols is None:
        return None
    flat, den = linalg.over_common_denominator(x for col in sols for x in col)
    size = len(s)
    inv = tuple(flat[i * size:(i + 1) * size] for i in range(size))
    return inv, den, tuple(tuple(row[j] for j in s) for row in k)


def grow_support(q, table):
    """Bauer's growth on the integer pairings ``q`` (``D . C_i = q_i / e``
    for some e > 0).  ``table(s)`` gives ``support_table`` of the curve set
    s.  Returns ``(s, tab, x, zero)``: the support, its table (None when s is
    not negative definite, and then x and zero are None too), the integers
    ``x = inv q_s``, so that N = sum of c x_j / (den e) C_j for the curve
    Gram's denominator c, and the curves off s that the candidate meets in
    zero."""
    s = tuple([i for i, v in enumerate(q) if v < 0])
    while True:
        tab = table(s)
        if tab is None:
            return s, None, None, None
        inv, den, cols = tab
        qs = [q[j] for j in s]
        x = [sum(map(mul, row, qs)) for row in inv]
        # den * e * P.C_i for every curve i, zero on s; den = 1 when s is empty
        vals = [den * v - sum(map(mul, col, x)) for v, col in zip(q, cols)] if s else q
        low = min(vals, default=0)
        if low > 0:
            return s, tab, x, ()
        if low == 0:
            return s, tab, x, tuple([i for i, v in enumerate(vals) if v == 0 and i not in s])
        s = tuple(sorted((*s, vals.index(low))))


def zariski_decompose(m: SurfaceModel, d: DivisorClass) -> ZariskiResult:
    """Decompose a big divisor class; raises NotBig if no valid
    decomposition with positive volume exists."""
    if m.mode is Mode.CONFIGURATION and d.ample_coeff is not None and d.ample_coeff <= 0:
        raise ModeUnsupported(
            "configuration-mode decomposition needs an ample coefficient > 0"
        )
    n = model.curve_count(m)
    q, e = model.pairing_numerators(m, d)
    k, c = m.integer_curve_gram
    # one elimination per growth step decides definiteness and solves
    support, tab, x, zero = grow_support(q, lambda s: support_table(k, s))
    if tab is None:
        raise NotBig(
            "support %r has a non-negative-definite intersection matrix"
            % (list(support),)
        )
    det = tab[1]
    coeffs = [Fraction(c * xj, det * e) for xj in x]
    if any(b <= 0 for b in coeffs):
        raise NotBig("negative part would have a nonpositive coefficient")

    neg_coeffs = tuple(zip(support, coeffs))
    a = dict(neg_coeffs)
    neg = model.divisor_from_ample_and_curves(m, 0, [a.get(i, 0) for i in range(n)])
    nef = model.add_divisors(m, d, model.scale_divisor(m, -1, neg))

    # P . N = 0, so P^2 = D^2 - N.D and P.H = D.H - N.H, with
    # N.D = sum of (c x_j / (det e)) (q_j / e)
    p_square = model.pair(m, d, d)
    p_ample = model.pair(m, d, model.ample_divisor(m))
    if support:
        h = model.ample_pairings(m)
        p_square -= Fraction(c * sum(map(mul, x, [q[j] for j in support])), det * e * e)
        p_ample -= sum(b * h[j] for j, b in neg_coeffs)
    if p_square <= 0 or p_ample <= 0:
        raise NotBig(
            "nef part has square %s and ample pairing %s" % (p_square, p_ample)
        )

    null = tuple(sorted((*support, *zero)))
    p_dots = model.pairing_numerators(m, nef)[0]
    require(
        min(p_dots, default=0) >= 0
        and tuple(i for i in range(n) if p_dots[i] == 0) == null,
        "zariski_decompose: nef part is negative on a curve or not zero exactly on its null set",
    )
    return ZariskiResult(
        nef_part=nef, neg_coeffs=neg_coeffs, neg_set=support, null_set=null, volume=p_square
    )


def volume(m: SurfaceModel, d: DivisorClass) -> Fraction:
    """vol(D) = P^2 for the nef part P; raises NotBig on non-big input."""
    return zariski_decompose(m, d).volume


def is_big(m: SurfaceModel, d: DivisorClass) -> BignessCheck:
    """Decide bigness.

    Returns a certificate (the Zariski decomposition, whose nef part has
    positive square) when one is computable.  Divisors in the positive cone
    (D^2 > 0 and D.ample > 0) are always big; in configuration mode with
    ample coefficient <= 0 that membership test is the only decision
    procedure available, so no decomposition certificate is attached.
    """
    try:
        result = zariski_decompose(m, d)
        return BignessCheck(True, result, None)
    except NotBig as exc:
        return BignessCheck(False, None, str(exc))
    except ModeUnsupported:
        if (
            model.pair(m, d, d) > 0
            and model.pair(m, d, model.ample_divisor(m)) > 0
        ):
            return BignessCheck(True, None, "positive-cone membership")
        return BignessCheck(
            False,
            None,
            "not in the positive cone; configuration mode cannot decompose "
            "divisors with ample coefficient <= 0",
        )
