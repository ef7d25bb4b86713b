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

``decide_bigness`` is the one bigness test: the growth, then the signs of
the negative part's coefficients and of P^2 and P.H, all in integers.
``zariski_decompose`` and ``plot`` both call it, for every divisor in either
mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg, model
from .errors import NotBig, require
from .model import DivisorClass, SurfaceModel


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


def decide_bigness(q, d2, hq, dh, c, table):
    """Bauer's growth and the bigness test on integers over positive
    denominators e and f: ``D . C_i = q_i / e``, ``H . C_i = hq_i / f``,
    ``D^2 = d2 / e^2`` and ``D . H = dh / (e f)``; ``c`` is the denominator
    of the curve Gram and ``table`` as in ``grow_support``.  Returns
    ``(step, p2, ph, failed)``: ``step`` is ``grow_support``'s result, ``p2``
    and ``ph`` are ``det e^2 P^2`` and ``det e f P.H`` for the support's
    ``det = tab[1]`` (None until the first two tests pass), and ``failed``
    names the test the divisor fails: "definite" (the support is not
    negative definite), "coefficients" (a coefficient of N is not positive)
    or "nef part" (P^2 or P.H is not positive), or is None when D is big.

    The growth reads the pairings only, never how D is written: in
    configuration mode a divisor with t <= 0 is decided like any other, and
    "P nef on the listed curves, P^2 > 0, P.H > 0 and N > 0" certifies that
    D = P + N is big under the model's assumptions whatever the sign of t."""
    step = s, tab, x, _ = grow_support(q, table)
    if tab is None:
        return step, None, None, "definite"
    if s and min(x) <= 0:
        return step, None, None, "coefficients"
    # P . N = 0, so P^2 = D^2 - N.D and P.H = D.H - N.H with N = sum of
    # c x_j / (det e) C_j
    det = tab[1]
    p2, ph = det * d2, det * dh
    if s:
        p2 -= c * sum(map(mul, x, [q[j] for j in s]))
        ph -= c * sum(map(mul, x, [hq[j] for j in s]))
    return step, p2, ph, None if p2 > 0 and ph > 0 else "nef part"


def zariski_decompose(m: SurfaceModel, d: DivisorClass) -> ZariskiResult:
    """Decompose a big divisor class; raises NotBig if no valid
    decomposition with positive volume exists."""
    n = model.curve_count(m)
    h = model.ample_divisor(m)
    (q, e), (hq, f) = model.pairing_numerators(m, d), model.pairing_numerators(m, h)
    # one product bv of D's vector v with the form B / qf gives
    # D^2 = v.bv / (qf den^2) = d2 / e^2 and D.H = hv.bv / (qf den hden) =
    # dh / (e f), since e = den r and f = hden r for a multiple r of qf
    form, qf = m.pairing_form
    (v, den), (hv, _) = (linalg.over_common_denominator(model.vector(m, x)) for x in (d, h))
    bv = [sum(map(mul, row, v)) for row in form]
    k = (e // den) ** 2 // qf
    d2, dh = k * sum(map(mul, v, bv)), k * sum(map(mul, hv, bv))
    gram, c = m.integer_curve_gram
    # one elimination per growth step decides definiteness and solves
    (support, tab, x, zero), p2, ph, failed = decide_bigness(
        q, d2, hq, dh, c, lambda s: support_table(gram, s)
    )
    if failed == "definite":
        raise NotBig(
            "support %r has a non-negative-definite intersection matrix"
            % (list(support),)
        )
    if failed == "coefficients":
        raise NotBig("negative part would have a nonpositive coefficient")
    det = tab[1]
    p_square = Fraction(p2, det * e * e)
    if failed:
        raise NotBig(
            "nef part has square %s and ample pairing %s"
            % (p_square, Fraction(ph, det * e * f))
        )

    neg_coeffs = tuple((j, Fraction(c * xj, det * e)) for j, xj in zip(support, x))
    a = dict(neg_coeffs)
    neg = model.divisor_from_ample_and_curves(m, 0, [a.get(i, 0) for i in range(n)])
    nef = model.add_divisors(m, d, model.scale_divisor(m, -1, neg))
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
    """Decide bigness: the Zariski decomposition, whose nef part has positive
    square, as the certificate, or the reason that NotBig gives."""
    try:
        return BignessCheck(True, zariski_decompose(m, d), None)
    except NotBig as exc:
        return BignessCheck(False, None, str(exc))
