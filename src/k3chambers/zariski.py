"""Zariski decomposition of big divisor classes.

The engine grows the candidate support iteratively: it starts from the
curves met negatively, solves the orthogonality system on that support, and
adds one curve at a time (the one met most negatively by the current nef
candidate) until the candidate is nonnegative on every listed curve.  The
negative-part support stays negative definite throughout; growth to a
non-negative-definite set proves the input is not big.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, model
from .errors import ModeUnsupported, NotBig, require
from .model import DivisorClass, Mode, SurfaceModel


@dataclass(frozen=True)
class ZariskiResult:
    """D = P + N with P the nef part and N = sum of neg_coeffs[i] * C_i.

    neg_set is the support of N; null_set is the set of listed curves that P
    pairs to zero with (always a superset of neg_set)."""

    nef_part: DivisorClass
    neg_coeffs: tuple[tuple[int, Fraction], ...]
    neg_set: tuple[int, ...]
    null_set: tuple[int, ...]


@dataclass(frozen=True)
class BignessCheck:
    big: bool
    decomposition: ZariskiResult | None
    reason: str | None


def negative_part(m: SurfaceModel, result: ZariskiResult) -> DivisorClass:
    a = [Fraction(0)] * model.curve_count(m)
    for i, b in result.neg_coeffs:
        a[i] = b
    return model.divisor_from_ample_and_curves(m, 0, a)


def zariski_decompose(m: SurfaceModel, d: DivisorClass) -> ZariskiResult:
    """Decompose a big divisor class; raises NotBig if no valid
    decomposition with positive volume exists."""
    if m.mode is Mode.CONFIGURATION and d.ample_coeff is not None and d.ample_coeff <= 0:
        raise ModeUnsupported(
            "configuration-mode decomposition needs an ample coefficient > 0"
        )
    n = model.curve_count(m)
    g = model.curve_gram(m)
    dots = model.pairings_with_curves(m, d)

    support = sorted(i for i in range(n) if dots[i] < 0)
    coeffs: list[Fraction] = []
    while True:
        sub = model.restrict_gram(m, support)
        if support and not linalg.is_negative_definite(sub):
            raise NotBig(
                "support %r has a non-negative-definite intersection matrix"
                % (support,)
            )
        coeffs = list(linalg.solve_linear(sub, [dots[j] for j in support]))
        residual = list(dots)
        for pos, j in enumerate(support):
            b = coeffs[pos]
            if b:
                for i in range(n):
                    residual[i] -= b * g[i][j]
        worst = None
        for i in range(n):
            if i in support:
                continue
            if residual[i] < 0 and (worst is None or residual[i] < residual[worst]):
                worst = i
        if worst is None:
            break
        support = sorted(support + [worst])

    if any(b <= 0 for b in coeffs):
        raise NotBig("negative part would have a nonpositive coefficient")

    neg = model.divisor_from_ample_and_curves(
        m, 0, [coeffs[support.index(i)] if i in support else 0 for i in range(n)]
    )
    if m.mode is Mode.FULL_LATTICE:
        nef = DivisorClass(coords=linalg.vec_sub(d.coords, neg.coords))
    else:
        nef = model.config_divisor(
            d.ample_coeff, linalg.vec_sub(d.curve_coeffs, neg.curve_coeffs)
        )

    p_square = model.pair(m, nef, nef)
    p_ample = model.pair(m, nef, model.ample_divisor(m))
    if p_square <= 0 or p_ample <= 0:
        raise NotBig(
            "nef part has square %s and ample pairing %s" % (p_square, p_ample)
        )

    null = tuple(i for i in range(n) if residual[i] == 0)
    require(set(support) <= set(null), "zariski_decompose: nef part meets its support")
    return ZariskiResult(
        nef_part=nef,
        neg_coeffs=tuple((j, coeffs[pos]) for pos, j in enumerate(support)),
        neg_set=tuple(support),
        null_set=null,
    )


def volume(m: SurfaceModel, d: DivisorClass) -> Fraction:
    """vol(D) = P^2 for the nef part P; raises NotBig on non-big input."""
    result = zariski_decompose(m, d)
    return model.pair(m, result.nef_part, result.nef_part)


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
